package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/resp"
	"memorydb/internal/txlog"
)

// TestGroupCommitBatchesUnderLoad drives many concurrent writers against a
// primary with realistic commit latency and checks that group commit
// actually coalesces: the log must contain data entries carrying more than
// one mutation record, while every write is still individually
// acknowledged and durable.
func TestGroupCommitBatchesUnderLoad(t *testing.T) {
	svc := testService(t, netsim.Fixed(3*time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	ctx := context.Background()
	const writers = 32
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := n.Do(ctx, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("{gc}k%d", i)), []byte("v")})
			if err != nil || v.IsError() {
				t.Errorf("write %d failed: %v %v", i, v, err)
			}
		}(i)
	}
	wg.Wait()

	ls := log.Stats()
	if ls.MaxRecordsPerEntry < 2 {
		t.Fatalf("no batching observed: max records/entry = %d (stats %+v)", ls.MaxRecordsPerEntry, ls)
	}
	if ls.Records < writers {
		t.Fatalf("log saw %d records, want >= %d", ls.Records, writers)
	}
	st := n.Stats().Snapshot()
	if st.BatchFlushes == 0 || st.BatchedRecords < int64(writers) {
		t.Fatalf("node batch counters off: %+v", st)
	}
	if mean := float64(st.BatchedRecords) / float64(st.BatchFlushes); mean <= 1.0 {
		t.Fatalf("mean records/entry %.2f, want > 1 under concurrent load", mean)
	}
	// Every acknowledged write must be readable.
	for i := 0; i < writers; i++ {
		v := mustDo(t, n, "GET", fmt.Sprintf("{gc}k%d", i))
		if v.Text() != "v" {
			t.Fatalf("k%d lost after batched commit: %v", i, v)
		}
	}
}

// TestBatchSizeOneAppendsPerMutation pins the premise of the batch=1 arm
// the safety tests run under: with an append window no load fills, every
// data entry carries exactly one record, however many writers race.
func TestBatchSizeOneAppendsPerMutation(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNodeWindow(t, "node-a", log, nil, unboundedWindow)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	ctx := context.Background()
	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n.Do(ctx, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("k%d", i)), []byte("v")})
		}(i)
	}
	wg.Wait()

	ls := log.Stats()
	if ls.MaxRecordsPerEntry > 1 {
		t.Fatalf("unbounded window still batched: max records/entry = %d", ls.MaxRecordsPerEntry)
	}
	if ls.Records != ls.DataAppends {
		t.Fatalf("records (%d) != data appends (%d) with batching disabled", ls.Records, ls.DataAppends)
	}
}

// testNodeDepth1 builds a node with a group-commit pipeline depth of 1
// (classic group commit): the second concurrent mutation is guaranteed to
// buffer behind the in-flight append, which is what the buffered-path
// tests need to exercise deterministically.
func testNodeDepth1(t *testing.T, id string, log *txlog.Log) *Node {
	t.Helper()
	n, err := NewNode(Config{
		NodeID:             id,
		ShardID:            log.ShardID(),
		Log:                log,
		Lease:              120 * time.Millisecond,
		Backoff:            160 * time.Millisecond,
		RenewEvery:         30 * time.Millisecond,
		ChecksumEvery:      8,
		MaxInflightAppends: 1,
	})
	if err != nil {
		t.Fatalf("NewNode(%s): %v", id, err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	return n
}

// TestReadGatedOnBufferedWrite is the read-your-writes check for the
// buffering window itself: a read that observes a mutation still sitting
// in the group-commit buffer (no log seq assigned yet) must not return
// before that mutation is durable.
func TestReadGatedOnBufferedWrite(t *testing.T) {
	commit := 10 * time.Millisecond
	svc := testService(t, netsim.Fixed(commit))
	log, _ := svc.CreateLog("shard-1")
	n := testNodeDepth1(t, "node-a", log)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	ctx := context.Background()
	base := n.Stats().Mutations.Load()
	// First write flushes immediately (no append in flight) and keeps the
	// pipeline busy for one commit latency...
	go n.Do(ctx, [][]byte{[]byte("SET"), []byte("{rg}pipe"), []byte("x")})
	waitMutations(t, n, base+1)
	// ...so this second write lands in the group-commit buffer.
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		n.Do(ctx, [][]byte{[]byte("SET"), []byte("{rg}buffered"), []byte("v")})
	}()
	waitMutations(t, n, base+2)

	start := time.Now()
	v, err := n.Do(ctx, [][]byte{[]byte("GET"), []byte("{rg}buffered")})
	lat := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if v.Text() != "v" {
		t.Fatalf("read missed the buffered write: %v", v)
	}
	if lat < commit/2 {
		t.Fatalf("read of a buffered key returned in %v — before the batch could commit (%v)", lat, commit)
	}
	<-writeDone

	// An unrelated key is not gated on the batch (key-level hazards).
	mustDo(t, n, "SET", "{rg}other", "x")
	go n.Do(ctx, [][]byte{[]byte("SET"), []byte("{rg}pipe"), []byte("y")})
	waitMutations(t, n, base+4)
	go n.Do(ctx, [][]byte{[]byte("SET"), []byte("{rg}buffered"), []byte("w")})
	waitMutations(t, n, base+5)
	start = time.Now()
	if _, err := n.Do(ctx, [][]byte{[]byte("GET"), []byte("{rg}other")}); err != nil {
		t.Fatal(err)
	}
	if lat := time.Since(start); lat > commit/2 {
		t.Fatalf("read of an unrelated key gated on the batch for %v", lat)
	}
}

// TestFlushFailureAbortsWholeBatch cuts the log off while mutations are
// buffered behind an in-flight append: the flush fails, so every buffered
// write must be answered with an error (never silence, never success) and
// the node must step down.
func TestFlushFailureAbortsWholeBatch(t *testing.T) {
	commit := 15 * time.Millisecond
	svc, faults := faultyService(t, netsim.Fixed(commit))
	log, _ := svc.CreateLog("shard-1")
	n := testNodeDepth1(t, "node-a", log)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	ctx := context.Background()
	base := n.Stats().Mutations.Load()
	// Occupy the pipeline, then buffer two mutations behind it (one
	// slot, so they share a shard buffer at any shard count).
	go n.Do(ctx, [][]byte{[]byte("SET"), []byte("{fb}pipe"), []byte("x")})
	waitMutations(t, n, base+1)
	type reply struct {
		isErr bool
		err   error
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			v, err := n.Do(ctx, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("{fb}doomed%d", i)), []byte("v")})
			replies <- reply{isErr: v.IsError(), err: err}
		}(i)
	}
	waitMutations(t, n, base+3)
	// Fail appends before the in-flight entry acknowledges: the flush of
	// the buffered batch will hit the unavailable log.
	setLevel(faults, faultpoint.SiteLogUnavailable, true)
	defer setLevel(faults, faultpoint.SiteLogUnavailable, false)

	for i := 0; i < 2; i++ {
		select {
		case r := <-replies:
			if r.err != nil {
				t.Fatalf("buffered write returned transport error: %v", r.err)
			}
			if !r.isErr {
				t.Fatal("buffered write acknowledged although its batch never reached the log")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("buffered write reply never delivered after flush failure")
		}
	}
	// The node steps down (it may already have resynced back to replica by
	// the time we look, so check the demotion counter, not the live role).
	waitFor(t, "the node to step down after the flush failure", func() bool {
		return n.Stats().Demotions.Load() > 0 && n.Role() != election.RolePrimary
	})
}

// TestWaitCoversBufferedWrites checks the WAIT barrier extends over
// mutations still in the group-commit buffer, which have no log seq yet.
// The log commits on a simulated clock the test advances, so with the
// one-append window full the second SET provably sits in the buffer when
// WAIT executes, and WAIT may reply only once that SET's entry commits.
func TestWaitCoversBufferedWrites(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	var lat stepLatency // zero until the node leads: its claim commits at once
	svc := txlog.NewService(txlog.Config{Clock: sim, CommitLatency: &lat})
	log, _ := svc.CreateLog("shard-1")
	// No renewal in the test's span: nothing but the test's writes flushes.
	n, err := NewNode(Config{
		NodeID: "node-a", ShardID: log.ShardID(), Log: log,
		Lease: 20 * time.Second, Backoff: 25 * time.Second, RenewEvery: 10 * time.Second,
		MaxInflightAppends: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	lat.d.Store(int64(time.Second))

	do := func(args ...string) <-chan resp.Value {
		argv := make([][]byte, len(args))
		for i, a := range args {
			argv[i] = []byte(a)
		}
		reply := make(chan resp.Value, 1)
		go func() {
			v, err := n.Do(context.Background(), argv)
			if err != nil {
				v = resp.Err(err.Error())
			}
			reply <- v
		}()
		return reply
	}
	waitCount := func(what string, c *atomic.Int64, want int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); c.Load() < want; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s reached %d, want %d", what, c.Load(), want)
			}
		}
	}
	recv := func(what string, reply <-chan resp.Value) resp.Value {
		t.Helper()
		select {
		case v := <-reply:
			return v
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never replied", what)
			return resp.Value{}
		}
	}
	st := n.Stats()
	mutations, flushes, barriers := st.Mutations.Load(), st.BatchFlushes.Load(), st.BarrierOps.Load()
	first := do("SET", "{wb}pipe", "x")
	waitCount("mutations", &st.Mutations, mutations+1) // appended: the window is full
	second := do("SET", "{wb}buffered", "v")
	waitCount("mutations", &st.Mutations, mutations+2)
	wait := do("WAIT", "0", "0")
	waitCount("barrier ops", &st.BarrierOps, barriers+1)
	if got := st.BatchFlushes.Load() - flushes; got != 1 {
		t.Fatalf("%d flushes before WAIT executed, want 1: the second SET was not buffered", got)
	}

	// The first entry commits; its acknowledgement flushes the second SET.
	sim.Advance(time.Second)
	if v := recv("the first SET", first); v.Text() != "OK" {
		t.Fatalf("first SET: %v", v)
	}
	waitCount("flushes", &st.BatchFlushes, flushes+2)
	// Nothing can commit the buffered SET before the clock moves again, so
	// no wait here can fail a correct node; it only gives a WAIT released
	// with the first entry the time to show.
	select {
	case v := <-wait:
		t.Fatalf("WAIT replied %v before the write buffered ahead of it committed", v)
	case <-time.After(20 * time.Millisecond):
	}
	sim.Advance(time.Second)
	if v := recv("the buffered SET", second); v.Text() != "OK" {
		t.Fatalf("buffered SET: %v", v)
	}
	if v := recv("WAIT", wait); v.IsError() {
		t.Fatalf("WAIT failed: %v", v)
	}
}

// Goroutines are flat in in-flight depth: hundreds of writes waiting out a
// slow commit are waited for by the log's committer and the node's
// workloop, which exist already — the only goroutines they add are the
// callers blocked in Do.
func TestInflightWritesAddNoGoroutines(t *testing.T) {
	svc := testService(t, netsim.Fixed(20*time.Millisecond))
	log, _ := svc.CreateLog("shard-flat")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	mustDo(t, n, "SET", "warm", "v")

	const writers = 256
	issued := n.Stats().Mutations.Load()
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if v, err := n.Do(context.Background(), [][]byte{[]byte("SET"), []byte(fmt.Sprintf("k%d", i)), []byte("v")}); err != nil || v.IsError() {
				t.Errorf("write %d: %v %v", i, v, err)
			}
		}(i)
	}
	// Every write executed and none acknowledged yet (the first commit is
	// 20 ms away): the append windows are as full as they get.
	waitMutations(t, n, issued+writers)
	if grew := runtime.NumGoroutine() - before; grew > writers {
		t.Errorf("%d writes in flight grew the process by %d goroutines: %d beyond the callers", writers, grew, grew-writers)
	}
	wg.Wait()
}

// stepLatency is a commit latency a test changes under a running log.
type stepLatency struct{ d atomic.Int64 }

func (s *stepLatency) Sample() time.Duration { return time.Duration(s.d.Load()) }

// A write whose entry the log gives up — a torn tail truncated by the log
// service's restart pass — is never acknowledged: the node steps down, so
// the reply fails like every other reply gated under the lost leadership.
func TestTruncatedEntryFailsItsWriteAndDemotes(t *testing.T) {
	var lat stepLatency
	svc := testService(t, &lat)
	log, _ := svc.CreateLog("shard-torn-tail")
	// No renewal falls inside the wait below: a later append would be fenced
	// by the truncated tail and demote the node too, hiding what is tested.
	n, err := NewNode(Config{
		NodeID: "node-a", ShardID: log.ShardID(), Log: log,
		Lease: 1500 * time.Millisecond, Backoff: 1600 * time.Millisecond, RenewEvery: 1400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	mustDo(t, n, "SET", "k", "durable")

	// From here on nothing commits by itself within the test.
	lat.d.Store(int64(time.Minute))
	appended := log.Stats().DataAppends
	answered := make(chan struct{})
	go func() {
		v, err := n.Do(context.Background(), [][]byte{[]byte("SET"), []byte("k"), []byte("torn")})
		if err == nil && !v.IsError() {
			t.Errorf("write acknowledged (%v) though the log truncated its entry", v)
		}
		close(answered)
	}()
	for deadline := time.Now().Add(5 * time.Second); log.Stats().DataAppends == appended; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the write never reached the log")
		}
	}
	if _, truncated := log.RecoverChain(); truncated == 0 {
		t.Fatal("RecoverChain found no torn tail")
	}
	lat.d.Store(0)
	select {
	case <-answered:
	case <-time.After(time.Second):
		t.Fatal("write on a truncated entry was left without an answer")
	}
	// The step-down fails the gated replies before it counts itself.
	waitFor(t, "the node to step down after the log dropped an entry it had issued",
		func() bool { return n.Stats().Demotions.Load() > 0 })
}
