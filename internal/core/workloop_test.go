package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"memorydb/internal/election"
	"memorydb/internal/engine"
	"memorydb/internal/lin"
	"memorydb/internal/netsim"
	"memorydb/internal/txlog"
)

// These tests pin the one workloop: commands whose keys span slots, or
// whose result reflects the whole keyspace, run on it like any other, and
// so does every piece of node-internal work.

// TestWholeKeyspaceCommands runs the commands that read or write the
// whole keyspace — DBSIZE, KEYS, WAIT, FLUSHALL, INFO — against keys
// written concurrently across many slots.
func TestWholeKeyspaceCommands(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

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
	barriers := n.Stats().BarrierOps.Load()
	if v := mustDo(t, n, "DBSIZE"); v.Int != keys {
		t.Fatalf("DBSIZE = %v, want %d", v, keys)
	}
	if v := mustDo(t, n, "KEYS", "*"); len(v.Array) != keys {
		t.Fatalf("KEYS * returned %d keys, want %d", len(v.Array), keys)
	}
	if v := mustDo(t, n, "WAIT", "0", "0"); v.Int != 2 {
		t.Fatalf("WAIT = %v", v)
	}
	if got := n.Stats().BarrierOps.Load() - barriers; got != 3 {
		t.Fatalf("DBSIZE, KEYS and WAIT counted %d barrier ops, want 3", got)
	}
	info := mustDo(t, n, "INFO").Text()
	for _, want := range []string{"barrier_ops:", "queue_depth:", fmt.Sprintf("\r\nkeys:%d\r\n", keys)} {
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
}

// TestCrossSlotCommandsSpanShards exercises multi-key commands whose keys
// live in different slots (the CROSSSLOT case a standalone node accepts):
// the result must reflect both keys' current state.
func TestCrossSlotCommandsSpanShards(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	a, b := crossSlotPair(t)
	mustDo(t, n, "SADD", a, "x", "y")
	mustDo(t, n, "SADD", b, "y", "z")
	if v := mustDo(t, n, "SINTERSTORE", "dst"+a, a, b); v.Int != 1 {
		t.Fatalf("SINTERSTORE = %v, want 1", v)
	}
	if v := mustDo(t, n, "SMEMBERS", "dst"+a); len(v.Array) != 1 || v.Array[0].Text() != "y" {
		t.Fatalf("SMEMBERS dst = %v", v)
	}
}

// TestBarrierConsistentCut: two keys in different slots are only ever
// written together — by an atomic MULTI/EXEC and by a cross-slot MSET,
// both keeping them equal — while readers snapshot both through a
// cross-slot transaction. Any reader observing unequal values caught a
// torn cut.
func TestBarrierConsistentCut(t *testing.T) {
	svc := testService(t, netsim.Fixed(500*time.Microsecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	ctx := context.Background()
	left, right := crossSlotPair(t)
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
	// Writers: bump both keys atomically, one by transaction, one by MSET.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if v, err := n.DoBatch(ctx, set(fmt.Sprintf("b%d", i))); err != nil || v.IsError() {
				t.Errorf("writer batch %d: %v %v", i, v, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			val := []byte(fmt.Sprintf("m%d", i))
			if v, err := n.Do(ctx, [][]byte{[]byte("MSET"), []byte(left), val, []byte(right), val}); err != nil || v.IsError() {
				t.Errorf("writer MSET %d: %v %v", i, v, err)
				return
			}
		}
	}()
	// Noise: single-key traffic keeps the queue busy.
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
	// Readers: snapshot both keys in one cross-slot transaction.
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

// TestCrossSlotLinearizability runs the §7.2.2 consistency check with a
// mixed workload: per-key traffic plus cross-slot MULTI/EXEC writes that
// update two keys in different slots atomically. The recorded history
// must stay linearizable per key.
func TestCrossSlotLinearizability(t *testing.T) {
	svc := testService(t, netsim.NewUniform(200*time.Microsecond, 2*time.Millisecond, 17))
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-a", log, nil)
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
		t.Fatalf("cross-slot history not linearizable (key %s)", badKey)
	}
}

// TestReplicaApplyUnderConcurrentReads applies the primary's entries on a
// replica while its readers run: single-key reads, whole-keyspace reads
// and cross-slot transactions. An entry is applied whole, as one workloop
// task, so a reader never sees half of a cross-slot batch; under -race,
// apply touching the keyspace off the workloop would be reported. A
// promoted replica then serves every acknowledged write.
func TestReplicaApplyUnderConcurrentReads(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	primary := testNode(t, "node-a", log, nil)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	replica := testNode(t, "node-b", log, nil)
	waitRole(t, replica, election.RoleReplica, time.Second)

	ctx := context.Background()
	left, right := crossSlotPair(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				opts := ReadOpts{Consistency: ReadEventual}
				switch r {
				case 0:
					replica.DoRead(ctx, [][]byte{[]byte("GET"), []byte(fmt.Sprintf("k%d", i%32))}, opts)
				case 1:
					replica.DoRead(ctx, [][]byte{[]byte("DBSIZE")}, opts)
				default:
					v, _, err := replica.DoBatchRead(ctx, [][][]byte{
						{[]byte("GET"), []byte(left)},
						{[]byte("GET"), []byte(right)},
					}, opts)
					if err == nil && !v.IsError() && v.Array[0].Text() != v.Array[1].Text() {
						t.Errorf("torn replica read: %s=%q %s=%q", left, v.Array[0].Text(), right, v.Array[1].Text())
						return
					}
				}
			}
		}(r)
	}
	const keys = 32
	for i := 0; i < keys; i++ {
		mustDo(t, primary, "SET", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		if v, err := primary.DoBatch(ctx, [][][]byte{
			{[]byte("SET"), []byte(left), []byte(fmt.Sprint(i))},
			{[]byte("SET"), []byte(right), []byte(fmt.Sprint(i))},
		}); err != nil || v.IsError() {
			t.Fatalf("cross-slot batch: %v %v", v, err)
		}
	}
	tail := log.CommittedTail().Seq
	for deadline := time.Now().Add(2 * time.Second); replica.AppliedSeq() < tail; {
		if time.Now().After(deadline) {
			t.Fatalf("replica applied %d of %d", replica.AppliedSeq(), tail)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	primary.Stop()
	waitRole(t, replica, election.RolePrimary, 3*time.Second)
	for i := 0; i < keys; i++ {
		if v := mustDo(t, replica, "GET", fmt.Sprintf("k%d", i)); v.Text() != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d lost across failover: %v", i, v)
		}
	}
	if v := mustDo(t, replica, "GET", right); v.Text() != fmt.Sprint(keys-1) {
		t.Fatalf("%s lost across failover: %v", right, v)
	}
}

// TestSingleShardLogsEveryRecord pins that serialized single-key writes
// reach the log as exactly one record each.
func TestSingleShardLogsEveryRecord(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-s", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	for i := 0; i < 20; i++ {
		mustDo(t, n, "SET", fmt.Sprintf("k%d", i), "v")
	}
	mustDo(t, n, "DEL", "k0")
	n.Stop()
	if got := log.Stats(); got.DataAppends == 0 || got.Records != 21 {
		t.Fatalf("log stats off: %+v", got)
	}
}

// TestInfoUnderConcurrentWrites runs INFO while SETs execute. The keyspace
// counters INFO sums are plain integers the workloop writes, so INFO must
// read them on the workloop; under -race a read from anywhere else would
// be reported. The last INFO counts every key.
func TestInfoUnderConcurrentWrites(t *testing.T) {
	svc := testService(t, netsim.Fixed(0))
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	const writers, perWriter = 4, 200
	ctx := context.Background()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d:%d", w, i)
				if v, err := n.Do(ctx, [][]byte{[]byte("SET"), []byte(k), []byte(k)}); err != nil || v.IsError() {
					t.Errorf("SET %s: %v %v", k, v, err)
					return
				}
			}
		}(w)
	}
	infos := make(chan int, 1)
	go func() {
		count := 0
		for {
			select {
			case <-done:
				infos <- count
				return
			default:
			}
			if v, err := n.Do(ctx, [][]byte{[]byte("INFO")}); err != nil || !strings.Contains(v.Text(), "\r\nkeys:") {
				t.Errorf("INFO: %v %v", v, err)
			}
			count++
		}
	}()
	wg.Wait()
	close(done)
	if <-infos == 0 {
		t.Fatal("no INFO ran while the writers did")
	}
	if info := mustDo(t, n, "INFO").Text(); !strings.Contains(info, fmt.Sprintf("\r\nkeys:%d\r\n", writers*perWriter)) {
		t.Fatalf("INFO after the writes, want keys:%d:\n%s", writers*perWriter, info)
	}
}

// nodeGoroutines lists, sorted, the entry function of every goroutine a
// Node method started.
func nodeGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(g, "\n")
		for i, l := range lines {
			if strings.HasPrefix(l, "created by memorydb/internal/core.(*Node).") && i >= 2 {
				entry := lines[i-2]
				entry = entry[:strings.LastIndex(entry, "(")]
				out = append(out, entry[strings.LastIndex(entry, ".")+1:])
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestNodeGoroutines pins the node's threads: a started node runs exactly
// its workloop, completion loop and role loop, and cross-slot commands in
// flight start no goroutine of their own.
func TestNodeGoroutines(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	want := []string{"completionLoop", "roleLoop", "workloop"}
	if got := nodeGoroutines(); !slices.Equal(got, want) {
		t.Fatalf("a started node runs %v, want %v", got, want)
	}

	a, b := crossSlotPair(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n.Do(ctx, [][]byte{[]byte("MSET"), []byte(a), []byte("1"), []byte(b), []byte("2")})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for samples := 0; ; samples++ {
		select {
		case <-done:
			if samples == 0 {
				t.Fatal("the MSETs finished before a sample was taken")
			}
			return
		default:
		}
		if got := nodeGoroutines(); !slices.Equal(got, want) {
			t.Fatalf("with cross-slot MSETs in flight the node runs %v, want %v", got, want)
		}
	}
}

// TestReplicaApplyAllocations pins what applying one replicated SET entry
// costs the heap on a replica: the workloop task that carries it plus the
// engine's apply. It was 8 when the apply parked every keyspace shard
// behind a lock (at 1, 2 or 8 shards alike).
func TestReplicaApplyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	primary := testNode(t, "node-a", log, nil)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	replica := testNode(t, "node-b", log, nil)
	waitRole(t, replica, election.RoleReplica, time.Second)

	eng := engine.New(nil)
	e := txlog.Entry{Type: txlog.EntryData, Payload: eng.Exec([][]byte{[]byte("SET"), []byte("applied"), []byte("value")}).Effects}
	const max = 8
	got := testing.AllocsPerRun(1000, func() {
		if err := replica.applyData(e); err != nil {
			t.Fatal(err)
		}
	})
	if got > max {
		t.Fatalf("one replicated SET costs %.0f allocations to apply, want <= %d", got, max)
	}
	t.Logf("one replicated SET costs %.0f allocations to apply", got)
}
