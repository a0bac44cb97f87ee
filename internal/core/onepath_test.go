package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"memorydb/internal/crc16"
	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/obs"
	"memorydb/internal/resp"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// These tests pin the single command path: a cross-slot or whole-keyspace
// command is a command like any other, every append goes through the
// sequencer, and one sampler feeds both trace surfaces.

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

// crossSlotPair returns two keys in different hash slots.
func crossSlotPair(t *testing.T) (string, string) {
	t.Helper()
	a, b := "{cross-a}k", "{cross-b}k"
	if crc16.Slot(a) == crc16.Slot(b) {
		t.Fatalf("%s and %s share a slot", a, b)
	}
	return a, b
}

// A cross-slot mutation is flushed by the same code as any other: it
// records the append/quorum_wait/tracker_release stages and passes the
// core.flush.pre fault site.
func TestBarrierMutationTakesTheFlushPath(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-onepath-a")
	faults := faultpoint.New(1)
	n := onePathNode(t, "node-a", log, Config{Faults: faults})
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	stages := []obs.Stage{obs.StageAppend, obs.StageQuorumWait, obs.StageTrackerRelease}
	before := map[obs.Stage]uint64{}
	for _, s := range stages {
		before[s] = n.Obs().Stage(s).Count()
	}
	hits := faults.Hits(faultpoint.SiteFlushPre)

	a, b := crossSlotPair(t)
	mustDo(t, n, "MSET", a, "1", b, "2")

	for _, s := range stages {
		if got := n.Obs().Stage(s).Count(); got <= before[s] {
			t.Errorf("stage %s count stayed at %d across a cross-slot mutation", s, got)
		}
	}
	if got := faults.Hits(faultpoint.SiteFlushPre); got <= hits {
		t.Errorf("%s hits stayed at %d across a cross-slot mutation", faultpoint.SiteFlushPre, got)
	}
}

// Cross-slot and whole-keyspace mutations arriving behind a full append
// pipeline buffer like any others: every one replies, and every one
// reaches the log as a record of a flushed batch.
func TestBarrierMutationsBeyondPipelineDepthAllReply(t *testing.T) {
	svc := testService(t, netsim.Fixed(10*time.Millisecond))
	log, _ := svc.CreateLog("shard-onepath-b")
	n := onePathNode(t, "node-a", log, Config{})
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	a, b := crossSlotPair(t)

	writes := 2*n.cfg.MaxInflightAppends + 4
	records := n.Stats().BatchedRecords.Load()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < writes; i++ {
		argv := [][]byte{[]byte("MSET"), []byte(a), []byte(fmt.Sprint(i)), []byte(b), []byte(fmt.Sprint(i))}
		if i%2 == 1 {
			argv = [][]byte{[]byte("FLUSHALL")}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := n.Do(ctx, argv)
			if err != nil || v.IsError() {
				t.Errorf("%s: %v %v", argv[0], v, err)
			}
		}()
	}
	wg.Wait()
	if got := n.Stats().BatchedRecords.Load() - records; got != int64(writes) {
		t.Fatalf("%d mutations replied, %d reached the log", writes, got)
	}
}

// A readonly read on a replica takes the workloop's read ladder whether it
// names a key or the whole keyspace: caught up, both are served
// linearizably; cut off from the log, neither can be proven fresh, and both
// are redirected.
func TestReplicaReadLadderRunsOnBothPaths(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-onepath-c")
	primary := onePathNode(t, "node-a", log, Config{})
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	part := faultpoint.New(1)
	replica := onePathNode(t, "node-b", log, Config{Faults: part})
	mustDo(t, primary, "SET", "k", "v")
	waitApplied(t, replica, log.CommittedTail().Seq, 2*time.Second)

	reads := [][][]byte{{[]byte("GET"), []byte("k")}, {[]byte("DBSIZE")}}
	for _, argv := range reads {
		v, outcome, err := replica.DoRead(context.Background(), argv, ReadOpts{})
		if err != nil || outcome != ReadOutcomeLinearizable || v.IsError() {
			t.Errorf("%s on a caught-up replica = %v, %v, %v; want a linearizable reply", argv[0], v, outcome, err)
		}
	}
	setLevel(part, faultpoint.SiteNodePartition, true)
	for _, argv := range reads {
		v, outcome, err := replica.DoRead(context.Background(), argv, ReadOpts{})
		if err != nil || outcome != ReadOutcomeRedirected || !IsRedirect(v) {
			t.Errorf("%s on a partitioned replica = %v, %v, %v; want REDIRECT", argv[0], v, outcome, err)
		}
	}
}

// LATENCY TRACES is a summary of the span trees TRACE GET returns: for the
// same trace id the two surfaces agree on total, queue and execute time.
func TestLatencyTracesMatchTraceGet(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-onepath-d")
	n := onePathNode(t, "node-a", log, Config{Trace: trace.NewCollector(1, 7, 0)})
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
					return s, s.Array[6].Int
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
