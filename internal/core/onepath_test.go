package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/obs"
	"memorydb/internal/resp"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// These tests pin the single command path: the barrier shard is a shard,
// every append goes through the sequencer, and one sampler feeds both
// trace surfaces. Each failed on the code that had a private barrier path.

func onePathNode(t *testing.T, id string, log *txlog.Log, cfg Config) *Node {
	t.Helper()
	cfg.NodeID, cfg.ShardID, cfg.Log = id, log.ShardID(), log
	cfg.Lease, cfg.Backoff, cfg.RenewEvery = 120*time.Millisecond, 160*time.Millisecond, 30*time.Millisecond
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	return n
}

// crossShardPair returns two keys owned by different execution shards.
func crossShardPair(t *testing.T, n *Node) (string, string) {
	t.Helper()
	for c := 'b'; c <= 'z'; c++ {
		if n.shardOfKey([]byte{byte(c)}) != n.shardOfKey([]byte("a")) {
			return "a", string(c)
		}
	}
	t.Fatal("no cross-shard key pair found")
	return "", ""
}

// A cross-shard mutation is flushed by the same code as a shard's batch:
// it records the append/quorum_wait/tracker_release stages and passes the
// core.flush.pre fault site.
func TestBarrierMutationTakesTheFlushPath(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-onepath-a")
	faults := faultpoint.New(1)
	n := onePathNode(t, "node-a", log, Config{Shards: 8, Faults: faults})
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	stages := []obs.Stage{obs.StageAppend, obs.StageQuorumWait, obs.StageTrackerRelease}
	before := map[obs.Stage]uint64{}
	for _, s := range stages {
		before[s] = n.Obs().Stage(s).Count()
	}
	hits := faults.Hits(faultpoint.SiteFlushPre)
	barriers := n.Stats().BarrierOps.Load()

	a, b := crossShardPair(t, n)
	mustDo(t, n, "MSET", a, "1", b, "2")

	if n.Stats().BarrierOps.Load() == barriers {
		t.Fatal("cross-shard MSET did not take the barrier")
	}
	for _, s := range stages {
		if got := n.Obs().Stage(s).Count(); got <= before[s] {
			t.Errorf("stage %s count stayed at %d across a barrier mutation", s, got)
		}
	}
	if got := faults.Hits(faultpoint.SiteFlushPre); got <= hits {
		t.Errorf("%s hits stayed at %d across a barrier mutation", faultpoint.SiteFlushPre, got)
	}
}

// The barrier shard has no workloop to flush a buffer on an append ack, so
// mutations arriving behind a full append pipeline must still be flushed
// (and stamped) before the coordinator releases the shards.
func TestBarrierMutationsBeyondPipelineDepthAllReply(t *testing.T) {
	svc := testService(t, netsim.Fixed(10*time.Millisecond))
	log, _ := svc.CreateLog("shard-onepath-b")
	n := onePathNode(t, "node-a", log, Config{Shards: 8})
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	a, b := crossShardPair(t, n)

	writes := 2*n.cfg.MaxInflightAppends + 4
	appends := n.Obs().Stage(obs.StageAppend).Count()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < writes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := n.Do(ctx, [][]byte{[]byte("MSET"), []byte(a), []byte(fmt.Sprint(i)), []byte(b), []byte(fmt.Sprint(i))})
			if err != nil || v.IsError() {
				t.Errorf("barrier MSET %d: %v %v", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	if got := n.Obs().Stage(obs.StageAppend).Count() - appends; got < uint64(writes) {
		t.Fatalf("%d barrier mutations recorded %d append stages", writes, got)
	}
}

// A readonly read that reaches a replica without passing the read ladder
// is bounced with REDIRECT whichever shard it lands on.
func TestUnverifiedReplicaReadRedirectsOnBothPaths(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-onepath-c")
	primary := onePathNode(t, "node-a", log, Config{Shards: 8})
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	replica := onePathNode(t, "node-b", log, Config{Shards: 8})
	mustDo(t, primary, "SET", "k", "v")

	barriers := replica.Stats().BarrierOps.Load()
	for _, argv := range [][][]byte{{[]byte("GET"), []byte("k")}, {[]byte("DBSIZE")}} {
		// Straight to submit: DoRead would verify (or redirect) first.
		v, err := replica.submit(context.Background(), &task{kind: taskCmd, argv: argv, readonly: true})
		if err != nil {
			t.Fatalf("%s: %v", argv[0], err)
		}
		if !IsRedirect(v) {
			t.Errorf("unverified readonly %s on a replica = %v, want REDIRECT", argv[0], v)
		}
	}
	if got := replica.Stats().BarrierOps.Load() - barriers; got != 1 {
		t.Fatalf("%d of the two reads took the barrier, want exactly DBSIZE", got)
	}
}

// LATENCY TRACES is a summary of the span trees TRACE GET returns: for the
// same trace id the two surfaces agree on total, queue and execute time.
func TestLatencyTracesMatchTraceGet(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-onepath-d")
	n := onePathNode(t, "node-a", log, Config{Shards: 2, Trace: trace.NewCollector(1, 7, 0)})
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	mustDo(t, n, "SET", "k", "v")

	rows := mustDo(t, n, "LATENCY", "TRACES", "64").Array
	checked := 0
	for _, row := range rows {
		if row.Array[1].Text() != "SET" {
			continue
		}
		id, total, queue, exec := row.Array[0].Int, row.Array[2].Int, row.Array[3].Int, row.Array[4].Int
		spans := mustDo(t, n, "TRACE", "GET", fmt.Sprint(id)).Array
		dur := func(name string, parent int64) (resp.Value, int64) {
			for _, s := range spans {
				if s.Array[2].Text() == name && (parent == 0 || s.Array[1].Int == parent) {
					return s, s.Array[7].Int
				}
			}
			t.Fatalf("trace %d has no %s span: %v", id, name, spans)
			return resp.Value{}, 0
		}
		cmd, cmdDur := dur("cmd:SET", 0)
		_, queueDur := dur("queue_wait", cmd.Array[0].Int)
		_, execDur := dur("execute", cmd.Array[0].Int)
		if total != cmdDur || queue != queueDur || exec != execDur {
			t.Errorf("trace %d: LATENCY TRACES total/queue/exec = %d/%d/%d, TRACE GET = %d/%d/%d",
				id, total, queue, exec, cmdDur, queueDur, execDur)
		}
		if commit := row.Array[5].Int; commit > total-queue-exec+1 {
			t.Errorf("trace %d: commit %d is not the remainder of total %d", id, commit, total)
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("LATENCY TRACES has no SET row at sample rate 1: %v", rows)
	}
}
