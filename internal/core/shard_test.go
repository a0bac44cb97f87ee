package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"memorydb/internal/crc16"
	"memorydb/internal/election"
	"memorydb/internal/lin"
	"memorydb/internal/netsim"
	"memorydb/internal/snapshot"
	"memorydb/internal/store"
	"memorydb/internal/txlog"
)

// testNodeShards builds a node with an explicit execution-shard count,
// overriding the GOMAXPROCS/env default so sharded behavior is exercised
// deterministically even on single-CPU runners.
func testNodeShards(t *testing.T, id string, log *txlog.Log, snaps *snapshot.Manager, shards int) *Node {
	t.Helper()
	n, err := NewNode(Config{
		NodeID:        id,
		ShardID:       log.ShardID(),
		Log:           log,
		Lease:         120 * time.Millisecond,
		Backoff:       160 * time.Millisecond,
		RenewEvery:    30 * time.Millisecond,
		Snapshots:     snaps,
		ChecksumEvery: 8,
		Shards:        shards,
	})
	if err != nil {
		t.Fatalf("NewNode(%s): %v", id, err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	return n
}

// TestShardOfSlotPartAlignment pins the slot→shard mapping's invariants:
// every slot maps to a valid shard, the mapping is monotone in the slot's
// part (so each shard owns a contiguous part range), and all of a part's
// 256 slots land on the same shard — the property that makes per-part
// store striping race-free.
func TestShardOfSlotPartAlignment(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8, 63, 64} {
		prev := 0
		partOwner := make(map[int]int)
		for slot := 0; slot < crc16.NumSlots; slot++ {
			sh := ShardOfSlot(uint16(slot), shards)
			if sh < 0 || sh >= shards {
				t.Fatalf("shards=%d slot=%d → %d out of range", shards, slot, sh)
			}
			if sh < prev {
				t.Fatalf("shards=%d slot=%d → %d not monotone (prev %d)", shards, slot, sh, prev)
			}
			prev = sh
			part := int(store.PartOfSlot(uint16(slot)))
			if owner, seen := partOwner[part]; seen && owner != sh {
				t.Fatalf("shards=%d part %d split across shards %d and %d", shards, part, owner, sh)
			}
			partOwner[part] = sh
		}
		if prev != shards-1 {
			t.Fatalf("shards=%d: last shard %d never reached", shards, prev)
		}
	}
}

// TestShardedSmoke runs the basic command surface against an 8-shard
// node: single-key ops spread across shards, whole-keyspace reads
// (DBSIZE, KEYS), WAIT, FLUSHALL, and INFO's shard section.
func TestShardedSmoke(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNodeShards(t, "node-a", log, nil, 8)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	if got := n.NumShards(); got != 8 {
		t.Fatalf("NumShards = %d, want 8", got)
	}
	ctx := context.Background()
	const keys = 64
	var wg sync.WaitGroup
	for i := 0; i < keys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := fmt.Sprintf("k%d", i)
			if v, err := n.Do(ctx, [][]byte{[]byte("SET"), []byte(k), []byte(k)}); err != nil || v.IsError() {
				t.Errorf("SET %s: %v %v", k, v, err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		if v := mustDo(t, n, "GET", k); v.Text() != k {
			t.Fatalf("GET %s = %v", k, v)
		}
	}
	if v := mustDo(t, n, "DBSIZE"); v.Int != keys {
		t.Fatalf("DBSIZE = %v, want %d", v, keys)
	}
	if v := mustDo(t, n, "KEYS", "*"); len(v.Array) != keys {
		t.Fatalf("KEYS * returned %d keys, want %d", len(v.Array), keys)
	}
	if v := mustDo(t, n, "WAIT", "0", "0"); v.Int != 2 {
		t.Fatalf("WAIT = %v", v)
	}
	info := mustDo(t, n, "INFO").Text()
	for _, want := range []string{"shard_count:8", "barrier_ops:", "cross_slot_ops:", "queue_depth_total:"} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q:\n%s", want, info)
		}
	}
	if v := mustDo(t, n, "FLUSHALL"); v.IsError() {
		t.Fatalf("FLUSHALL: %v", v)
	}
	if v := mustDo(t, n, "DBSIZE"); v.Int != 0 {
		t.Fatalf("DBSIZE after FLUSHALL = %v", v)
	}
	if n.Stats().BarrierOps.Load() == 0 {
		t.Fatal("barrier counter never incremented")
	}
}

// TestCrossSlotCommandsSpanShards exercises multi-key commands whose keys
// live on different execution shards (the CROSSSLOT case a standalone
// node accepts): the result must reflect both shards' current state.
func TestCrossSlotCommandsSpanShards(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNodeShards(t, "node-a", log, nil, 8)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	// Find two single-letter keys owned by different shards.
	a, b := "", ""
	for c := 'a'; c <= 'z'; c++ {
		k := string(c)
		if a == "" {
			a = k
			continue
		}
		if n.shardOfKey([]byte(k)) != n.shardOfKey([]byte(a)) {
			b = k
			break
		}
	}
	if b == "" {
		t.Fatal("no cross-shard key pair found")
	}
	mustDo(t, n, "SADD", a, "x", "y")
	mustDo(t, n, "SADD", b, "y", "z")
	before := n.Stats().CrossSlotOps.Load()
	if v := mustDo(t, n, "SINTERSTORE", "dst"+a, a, b); v.Int != 1 {
		t.Fatalf("SINTERSTORE = %v, want 1", v)
	}
	if v := mustDo(t, n, "SMEMBERS", "dst"+a); len(v.Array) != 1 || v.Array[0].Text() != "y" {
		t.Fatalf("SMEMBERS dst = %v", v)
	}
	if n.Stats().CrossSlotOps.Load() == before {
		t.Fatal("cross-slot counter never incremented")
	}
}

// TestBarrierConsistentCut is the barrier-correctness test: two keys on
// different execution shards are only ever written together by an atomic
// MULTI/EXEC that keeps them equal, while readers snapshot both through a
// cross-shard transaction. Any reader observing unequal values caught a
// torn cut — single-shard execution leaking through the barrier.
func TestBarrierConsistentCut(t *testing.T) {
	svc := testService(t, netsim.Fixed(500*time.Microsecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNodeShards(t, "node-a", log, nil, 8)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	ctx := context.Background()
	const left, right = "{cut-l}v", "{cut-r}v"
	if n.shardOfKey([]byte(left)) == n.shardOfKey([]byte(right)) {
		t.Fatalf("test keys landed on one shard (%d); pick different tags", n.shardOfKey([]byte(left)))
	}
	set := func(val string) [][][]byte {
		return [][][]byte{
			{[]byte("SET"), []byte(left), []byte(val)},
			{[]byte("SET"), []byte(right), []byte(val)},
		}
	}
	if v, err := n.DoBatch(ctx, set("0")); err != nil || v.IsError() {
		t.Fatalf("seed batch: %v %v", v, err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writer: bump both keys atomically.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if v, err := n.DoBatch(ctx, set(fmt.Sprintf("%d", i))); err != nil || v.IsError() {
				t.Errorf("writer batch %d: %v %v", i, v, err)
				return
			}
		}
	}()
	// Noise: single-key traffic keeps the shard queues busy so parks
	// genuinely wait behind queued work.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("noise%d-%d", c, i%16)
				n.Do(ctx, [][]byte{[]byte("SET"), []byte(k), []byte("x")})
			}
		}(c)
	}
	// Readers: snapshot both keys in one cross-shard transaction.
	reads := 0
	deadline := time.Now().Add(800 * time.Millisecond)
	for time.Now().Before(deadline) {
		v, err := n.DoBatch(ctx, [][][]byte{
			{[]byte("GET"), []byte(left)},
			{[]byte("GET"), []byte(right)},
		})
		if err != nil || v.IsError() {
			t.Fatalf("reader batch: %v %v", v, err)
		}
		if len(v.Array) != 2 {
			t.Fatalf("reader batch reply: %v", v)
		}
		if l, r := v.Array[0].Text(), v.Array[1].Text(); l != r {
			t.Fatalf("torn cut: %s=%q %s=%q", left, l, right, r)
		}
		reads++
	}
	close(stop)
	wg.Wait()
	if reads < 10 {
		t.Fatalf("only %d consistent-cut reads completed", reads)
	}
}

// TestShardedLinearizability runs the §7.2.2 consistency check against an
// 8-shard node with a mixed workload: per-key single-shard traffic plus
// cross-slot MULTI/EXEC writes that update two keys on different shards
// atomically. The recorded history must stay linearizable per key.
func TestShardedLinearizability(t *testing.T) {
	svc := testService(t, netsim.NewUniform(200*time.Microsecond, 2*time.Millisecond, 17))
	log, _ := svc.CreateLog("shard-1")
	n := testNodeShards(t, "node-a", log, nil, 8)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	rec := lin.NewRecorder()
	ctx := context.Background()
	var wg sync.WaitGroup
	const clients = 6
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(clientID int) {
			defer wg.Done()
			gen := lin.NewGenerator(lin.GenConfig{Seed: int64(clientID), Keys: 4, WriteRatio: 0.5})
			for i := 0; i < 12; i++ {
				if i%4 == 3 {
					// Cross-slot atomic write: both keys get the same
					// value at one commit point inside the op window, so
					// each key's write linearizes there.
					val := fmt.Sprintf("x%d-%d", clientID, i)
					k1, k2 := "key0", "key2"
					call := rec.Invoke()
					v, err := n.DoBatch(ctx, [][][]byte{
						{[]byte("SET"), []byte(k1), []byte(val)},
						{[]byte("SET"), []byte(k2), []byte(val)},
					})
					out := lin.Output{Err: err != nil || v.IsError()}
					in := lin.Input{Kind: "set", Value: val}
					rec.Complete(clientID, k1, in, out, call)
					rec.Complete(clientID, k2, in, out, call)
					continue
				}
				key, in, args := gen.Next(clientID*1000 + i)
				argv := make([][]byte, len(args))
				for j, a := range args {
					argv[j] = []byte(a)
				}
				call := rec.Invoke()
				v, err := n.Do(ctx, argv)
				out := lin.Output{}
				if err != nil || v.IsError() {
					out.Err = true
				} else if in.Kind == "get" {
					out.Value = v.Text()
				}
				rec.Complete(clientID, key, in, out, call)
			}
		}(c)
	}
	wg.Wait()
	if ok, badKey := lin.Check(lin.RegisterModel{}, rec.History()); !ok {
		t.Fatalf("sharded history not linearizable (key %s)", badKey)
	}
}

// TestShardedReplicaApply checks replication at Shards>1: entries flow
// from a sharded primary to a sharded replica (whole-entry barrier apply)
// and a promoted replica serves every acknowledged write.
func TestShardedReplicaApply(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	primary := testNodeShards(t, "node-a", log, nil, 8)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	replica := testNodeShards(t, "node-b", log, nil, 8)
	waitRole(t, replica, election.RoleReplica, time.Second)

	ctx := context.Background()
	const keys = 32
	for i := 0; i < keys; i++ {
		mustDo(t, primary, "SET", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	// Cross-shard batch rides the barrier path on both sides.
	if v, err := primary.DoBatch(ctx, [][][]byte{
		{[]byte("SET"), []byte("{r1}a"), []byte("1")},
		{[]byte("SET"), []byte("{r2}b"), []byte("2")},
	}); err != nil || v.IsError() {
		t.Fatalf("cross-shard batch: %v %v", v, err)
	}
	primary.Stop()
	waitRole(t, replica, election.RolePrimary, 3*time.Second)
	for i := 0; i < keys; i++ {
		if v := mustDo(t, replica, "GET", fmt.Sprintf("k%d", i)); v.Text() != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d lost across sharded failover: %v", i, v)
		}
	}
	if v := mustDo(t, replica, "GET", "{r1}a"); v.Text() != "1" {
		t.Fatalf("{r1}a lost: %v", v)
	}
	if v := mustDo(t, replica, "GET", "{r2}b"); v.Text() != "2" {
		t.Fatalf("{r2}b lost: %v", v)
	}
}

// TestSingleShardLogsEveryRecord pins what Shards=1 means now that it is
// the general path with one shard: serialized single-key writes still
// reach the log as exactly one record each.
func TestSingleShardLogsEveryRecord(t *testing.T) {
	run := func(shards int) txlog.Stats {
		svc := testService(t, netsim.Fixed(time.Millisecond))
		log, _ := svc.CreateLog("shard-1")
		n := testNodeShards(t, "node-s", log, nil, shards)
		waitRole(t, n, election.RolePrimary, 2*time.Second)
		for i := 0; i < 20; i++ {
			mustDo(t, n, "SET", fmt.Sprintf("k%d", i), "v")
		}
		mustDo(t, n, "DEL", "k0")
		n.Stop()
		return log.Stats()
	}
	got := run(1)
	if got.DataAppends == 0 || got.Records != 21 {
		t.Fatalf("Shards=1 log stats off: %+v", got)
	}
}
