package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
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

// TestReadGatedOnBufferedWrite is the read-your-writes check for the
// buffering window itself: a read that observes a mutation still sitting
// in the group-commit buffer (no log seq assigned yet) must not return
// before that mutation is durable.
func TestReadGatedOnBufferedWrite(t *testing.T) {
	h := newHarness(t, harnessConfig{window: 1})
	// The first write flushes at once and fills the one-append window...
	h.do("SET", "{rg}pipe", "x")
	// ...so this second write lands in the group-commit buffer.
	buffered := h.do("SET", "{rg}buffered", "v")
	if h.primary.gc.open == nil {
		t.Fatal("the second SET was flushed, not buffered")
	}
	get := h.do("GET", "{rg}buffered")
	h.mustWait(get)
	// The first entry commits, and answering for it flushes the buffer:
	// the read waits on that entry now.
	h.commit()
	h.mustWait(buffered)
	h.mustWait(get)
	h.commit()
	h.mustReply(buffered, "OK")
	h.mustReply(get, "v")

	// An unrelated key is not gated on the batch (key-level hazards).
	other := h.do("SET", "{rg}other", "x")
	h.commit()
	h.mustReply(other, "OK")
	h.do("SET", "{rg}pipe", "y")
	h.do("SET", "{rg}buffered", "w")
	h.mustReply(h.do("GET", "{rg}other"), "x")
}

// TestFlushFailureAbortsWholeBatch cuts the log off while mutations are
// buffered behind an in-flight append: the flush fails, so every buffered
// write must be answered with an error (never silence, never success) and
// the node must step down.
func TestFlushFailureAbortsWholeBatch(t *testing.T) {
	faults := faultpoint.New(1)
	h := newHarness(t, harnessConfig{window: 1, faults: faults})
	// Occupy the pipeline, then buffer two mutations behind it.
	pipe := h.do("SET", "{fb}pipe", "x")
	doomed := []*call{h.do("SET", "{fb}doomed0", "v"), h.do("SET", "{fb}doomed1", "v")}
	// Fail appends before the in-flight entry is answered for: the flush
	// of the buffered batch meets the unavailable log and retries it until
	// the lease, on the node's clock, runs out.
	setLevel(faults, faultpoint.SiteLogUnavailable, true)
	h.commit()
	h.mustReply(pipe, "OK")
	for _, c := range doomed {
		if v := h.mustReply(c, ""); !v.IsError() {
			t.Fatalf("buffered write acknowledged (%v) although its batch never reached the log", v)
		}
	}
	if st := h.primary.Stats(); st.Demotions.Load() == 0 || h.primary.Role() == election.RolePrimary {
		t.Fatalf("the node did not step down after the flush failure: role %v", h.primary.Role())
	}
}

// TestWaitCoversBufferedWrites checks the WAIT barrier extends over
// mutations still in the group-commit buffer, which have no log seq yet:
// with the one-append window full the second SET sits in the buffer when
// WAIT executes, and WAIT may reply only once that SET's entry commits.
func TestWaitCoversBufferedWrites(t *testing.T) {
	h := newHarness(t, harnessConfig{window: 1})
	barriers := h.primary.Stats().BarrierOps.Load()
	first := h.do("SET", "{wb}pipe", "x")
	second := h.do("SET", "{wb}buffered", "v")
	wait := h.do("WAIT", "0", "0")
	if open := h.primary.gc.open; open == nil || !open.holdsTask(second.t) || !open.holdsTask(wait.t) {
		t.Fatal("WAIT did not join the buffered SET")
	}
	if got := h.primary.Stats().BarrierOps.Load() - barriers; got != 1 {
		t.Fatalf("barrier ops +%d, want +1", got)
	}
	// The first entry commits; answering for it flushes the second SET.
	h.commit()
	h.mustReply(first, "OK")
	h.mustWait(wait)
	h.commit()
	h.mustReply(second, "OK")
	if v := h.mustReply(wait, ""); v.IsError() {
		t.Fatalf("WAIT failed: %v", v)
	}
}

// Goroutines are flat in in-flight depth: hundreds of writes waiting out a
// slow commit are waited for by the log's one commit timer and the node's
// workloop, which exists already — the only goroutines they add are the
// callers blocked in Do, and at most timerCallbacks wall-clock timer
// callbacks (the log's commit round and its readers' wake-up), each on a
// goroutine of its own while it runs. A callback per write is not flat.
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
	const timerCallbacks = 2
	if grew := runtime.NumGoroutine() - before; grew > writers+timerCallbacks {
		t.Errorf("%d writes in flight grew the process by %d goroutines: %d beyond the callers and %d timer callbacks", writers, grew, grew-writers-timerCallbacks, timerCallbacks)
	}
	wg.Wait()
}

// A write whose entry the log gives up — a torn tail truncated by the log
// service's restart pass — is never acknowledged: the node steps down, so
// the reply fails like every other reply gated under the lost leadership.
func TestTruncatedEntryFailsItsWriteAndDemotes(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	durable := h.do("SET", "k", "durable")
	h.commit()
	h.mustReply(durable, "OK")

	torn := h.do("SET", "k", "torn")
	if h.failHead() == 0 {
		t.Fatal("RecoverChain found no torn tail")
	}
	h.mustWait(torn)
	h.answer()
	if v := h.mustReply(torn, ""); !v.IsError() {
		t.Fatalf("write acknowledged (%v) though the log truncated its entry", v)
	}
	if h.primary.Stats().Demotions.Load() == 0 {
		t.Fatal("the node did not step down after the log dropped an entry it had issued")
	}
}

// A run is one turn, and its writes are one entry: [SET a, GET a, SET b]
// issues one entry of two records, and the GET, which observed the first
// SET in the open buffer, joins that entry and is answered with it.
func TestRunSharesOneEntry(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	st := h.primary.Stats()
	flushes, records := st.BatchFlushes.Load(), st.BatchedRecords.Load()
	calls := h.run(h.primary, []string{"SET", "a", "1"}, []string{"GET", "a"}, []string{"SET", "b", "2"})
	if len(h.primary.issued) != 1 {
		t.Fatalf("the run issued %d entries, want 1", len(h.primary.issued))
	}
	if e := h.head(); len(e.writes) != 2 || !e.holdsTask(calls[1].t) {
		t.Fatalf("the entry holds %d writes and the GET: %v, want 2 and true", len(e.writes), e.holdsTask(calls[1].t))
	}
	if f, r := st.BatchFlushes.Load()-flushes, st.BatchedRecords.Load()-records; f != 1 || r != 2 {
		t.Fatalf("batch flushes +%d, batched records +%d; want +1, +2", f, r)
	}
	for _, c := range calls {
		h.mustWait(c)
	}
	h.commit()
	h.mustReply(calls[0], "OK")
	h.mustReply(calls[1], "1")
	h.mustReply(calls[2], "OK")
}

// The caps bound a run's entry too: 65 SETs make an entry of 64 records,
// flushed partway through the turn, and one of 1 at its end.
func TestRunSplitsAtRecordCap(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	cmds := make([][]string, maxBatchRecords+1)
	for i := range cmds {
		cmds[i] = []string{"SET", fmt.Sprintf("k%d", i), "v"}
	}
	h.run(h.primary, cmds...)
	var sizes []int
	for _, e := range h.primary.issued {
		sizes = append(sizes, len(e.writes))
	}
	if len(sizes) != 2 || sizes[0] != maxBatchRecords || sizes[1] != 1 {
		t.Fatalf("entries of %v records, want [%d 1]", sizes, maxBatchRecords)
	}
}

// A demotion partway through a run fails the rest of it: the cap flush
// meets a log another writer took over, the node steps down, and the
// entry's writes and every command after them in the run are answered
// errDemoted. The read before them was answered as it ran.
func TestRunDemotedPartway(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	set := h.do("SET", "k", "v1")
	h.commit()
	h.mustReply(set, "OK")
	if _, err := h.log.StartAppend(h.log.AssignedTail(), txlog.Entry{Type: txlog.EntryData, Payload: []byte("usurper")}); err != nil {
		t.Fatal(err)
	}
	cmds := [][]string{{"GET", "k"}}
	for i := 0; i < maxBatchRecords; i++ {
		cmds = append(cmds, []string{"SET", fmt.Sprintf("k%d", i), "v"})
	}
	cmds = append(cmds, []string{"SET", "k", "v2"}, []string{"GET", "k"})
	calls := h.run(h.primary, cmds...)
	h.mustReply(calls[0], "v1")
	for _, c := range calls[1:] {
		if v := h.mustReply(c, ""); !v.Equal(errDemoted) {
			t.Fatalf("%s = %v, want %v", c.t.name, v, errDemoted)
		}
	}
	if h.primary.Role() == election.RolePrimary {
		t.Fatal("the fenced primary did not step down")
	}
}
