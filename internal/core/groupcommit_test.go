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
	flushes, records := n.Stats().BatchFlushes.Load(), n.Stats().BatchedRecords.Load()
	if flushes == 0 || records < int64(writers) {
		t.Fatalf("node batch counters off: %d records in %d flushes", records, flushes)
	}
	if mean := float64(records) / float64(flushes); mean <= 1.0 {
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

// TestReadGatedOnBufferedWrite is the read-your-writes check for the
// buffer itself: a read that observes a mutation still sitting in the
// group-commit buffer (no log seq assigned yet) must not return before
// that mutation is durable. The buffer holds a write only inside a turn,
// so the read is the write's neighbour in a run.
func TestReadGatedOnBufferedWrite(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	pipe := h.do("SET", "{rg}pipe", "x")
	calls := h.run(h.primary, []string{"SET", "{rg}buffered", "v"}, []string{"GET", "{rg}buffered"})
	buffered, get := calls[0], calls[1]
	if len(h.primary.issued) != 2 || !h.primary.issued[1].holdsTask(get.t) {
		t.Fatal("the GET did not join the entry of the SET it observed in the buffer")
	}
	h.mustWait(get)
	// The first entry commits; the read waits on the second.
	h.commit()
	h.mustReply(pipe, "OK")
	h.mustWait(buffered)
	h.mustWait(get)
	h.commit()
	h.mustReply(buffered, "OK")
	h.mustReply(get, "v")

	// An unrelated key is not gated on the batch (key-level hazards).
	other := h.do("SET", "{rg}other", "x")
	h.commit()
	h.mustReply(other, "OK")
	calls = h.run(h.primary, []string{"SET", "{rg}pipe", "y"}, []string{"SET", "{rg}buffered", "w"}, []string{"GET", "{rg}other"})
	h.mustReply(calls[2], "x")
}

// TestXReadWaitsForTheXAddItSees: XREAD is a read of the streams named
// after STREAMS, so like GET after SET it is answered only once the XADD
// it observes is durable (§3.2), and a read of another stream is not held.
func TestXReadWaitsForTheXAddItSees(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	add := h.do("XADD", "{x}s", "1-1", "f", "v")
	read := h.do("XREAD", "COUNT", "5", "STREAMS", "{x}s", "0")
	other := h.do("XREAD", "STREAMS", "{x}other", "0")
	h.mustReply(other, "")
	h.mustWait(add)
	h.mustWait(read)
	h.commit()
	h.mustReply(add, "1-1")
	if v := h.mustReply(read, ""); len(v.Array) != 1 {
		t.Fatalf("XREAD after the commit = %v, want the one stream", v)
	}
}

// TestFlushFailureAbortsWholeBatch cuts the log off while mutations are
// buffered behind an entry that committed unanswered: the flush fails, so
// every buffered write must be answered with an error (never silence,
// never success) and the node must step down, while the committed entry's
// write is still answered OK.
func TestFlushFailureAbortsWholeBatch(t *testing.T) {
	faults := faultpoint.New(1)
	h := newHarness(t, harnessConfig{faults: faults})
	pipe := h.do("SET", "{fb}pipe", "x")
	h.commitHead()
	// Fail appends before the committed entry is answered for: the flush
	// of the run's batch meets the unavailable log, answers for the
	// committed entry, and retries until the lease, on the node's clock,
	// runs out.
	setLevel(faults, faultpoint.SiteLogUnavailable, true)
	doomed := h.run(h.primary, []string{"SET", "{fb}doomed0", "v"}, []string{"SET", "{fb}doomed1", "v"})
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
// the second SET sits in the buffer when WAIT, its neighbour in a run,
// executes, and WAIT may reply only once that SET's entry commits.
func TestWaitCoversBufferedWrites(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	barriers := h.primary.Stats().BarrierOps.Load()
	first := h.do("SET", "{wb}pipe", "x")
	calls := h.run(h.primary, []string{"SET", "{wb}buffered", "v"}, []string{"WAIT", "0", "0"})
	second, wait := calls[0], calls[1]
	if len(h.primary.issued) != 2 || !h.primary.issued[1].holdsTask(second.t) || !h.primary.issued[1].holdsTask(wait.t) {
		t.Fatal("WAIT did not join the buffered SET")
	}
	if got := h.primary.Stats().BarrierOps.Load() - barriers; got != 1 {
		t.Fatalf("barrier ops +%d, want +1", got)
	}
	h.commit()
	h.mustReply(first, "OK")
	h.mustWait(wait)
	h.commit()
	h.mustReply(second, "OK")
	if v := h.mustReply(wait, ""); v.IsError() {
		t.Fatalf("WAIT failed: %v", v)
	}
}

// TestQueuedWritersShareOneTurn: a turn takes what is already queued. 64
// depth-1 SETs, each its own run, queued while the workloop was busy, are
// taken by one turn, issued as one entry of 64 records and answered by
// one commit, so no write waits out a second commit.
func TestQueuedWritersShareOneTurn(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	const writers = maxBatchRecords
	calls := make([]*call, writers)
	for i := range calls {
		calls[i] = h.queue(h.primary, "SET", fmt.Sprintf("k%d", i), "v")
	}
	mutations := h.primary.Stats().Mutations.Load()
	h.take(h.primary)
	if left, ran := len(h.primary.tasks), h.primary.Stats().Mutations.Load()-mutations; left != 0 || ran != writers {
		t.Fatalf("one turn ran %d SETs and left %d on the queue, want %d and 0", ran, left, writers)
	}
	if len(h.primary.issued) != 1 || len(h.head().writes) != writers {
		var sizes []int
		for _, e := range h.primary.issued {
			sizes = append(sizes, len(e.writes))
		}
		t.Fatalf("entries of %v records, want one of %d", sizes, writers)
	}
	h.commit()
	for _, c := range calls {
		h.mustReply(c, "OK")
	}
}

// TestTurnServesAboutOneEntryOfCommands: a turn's drain is bounded by the
// commands it served, not by the runs it took, so a queue of whole
// pipelines cannot keep the log's answers and the timers waiting. The
// first run is served whole; the drain stops once the turn has served
// maxBatchRecords commands.
func TestTurnServesAboutOneEntryOfCommands(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	pipeline := func(tag string, n int) [][]string {
		cmds := make([][]string, n)
		for i := range cmds {
			cmds[i] = []string{"SET", fmt.Sprintf("%s%d", tag, i), "v"}
		}
		return cmds
	}
	h.queueRun(h.primary, pipeline("a", 40)...)
	h.queueRun(h.primary, pipeline("b", 40)...)
	h.queueRun(h.primary, pipeline("c", 40)...)
	mutations := h.primary.Stats().Mutations.Load()
	h.take(h.primary)
	if left, ran := len(h.primary.tasks), h.primary.Stats().Mutations.Load()-mutations; left != 1 || ran != 80 {
		t.Fatalf("one turn ran %d SETs and left %d runs queued, want 80 and 1", ran, left)
	}
	h.take(h.primary)
	if len(h.primary.tasks) != 0 {
		t.Fatal("the second turn left the last run queued")
	}
}

// TestStopWhileFrozenInDrainActsNoFurther: a node stopped while frozen
// halfway through a turn's drain drops the task it took and ends the turn
// there, as the workloop drops its input: no flush meets the stopped log
// path, so no failed append, demotion or role change is counted after
// Stop, and the dropped write never runs.
func TestStopWhileFrozenInDrainActsNoFurther(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	n := h.primary
	first := h.queue(n, "SET", "first", "v")
	h.queueFunc(n, func() error { n.Freeze(); n.stopFn(); return nil })
	h.queue(n, "SET", "dropped", "v")
	st := n.Stats()
	mutations, failed, demotions := st.Mutations.Load(), st.AppendsFailed.Load(), st.Demotions.Load()
	n.step(input{kind: inTask, t: <-n.tasks})
	if ran := st.Mutations.Load() - mutations; ran != 1 {
		t.Fatalf("%d SETs ran, want only the one taken before the stop", ran)
	}
	if len(n.issued) != 0 || st.AppendsFailed.Load() != failed || st.Demotions.Load() != demotions {
		t.Fatalf("the stopped turn went on: %d entries issued, appends failed %d -> %d, demotions %d -> %d",
			len(n.issued), failed, st.AppendsFailed.Load(), demotions, st.Demotions.Load())
	}
	if n.Role() != election.RolePrimary {
		t.Fatalf("the stopped node published role %v", n.Role())
	}
	select {
	case <-first.t.done:
		t.Fatalf("the unflushed SET was answered %v", first.t.val)
	default:
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
	// 20 ms away): as many entries are in flight as there will be.
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
