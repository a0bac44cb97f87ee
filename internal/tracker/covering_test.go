package tracker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// gateRead withholds a read the way the node does: Covering says what the
// read must wait for, and only a read that has to wait is registered.
func gateRead(trk *Tracker, keys []string, deliver func(aborted bool)) {
	if seq := trk.Covering(0, views(keys)); seq == 0 {
		deliver(false)
	} else {
		trk.RegisterWrite(seq, nil, deliver)
	}
}

// views turns test keys into the argument views Covering takes.
func views(keys []string) [][]byte {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = []byte(k)
	}
	return out
}

// TestGateReadDeliveredAfterCoveringWrite pins the delivery ordering
// contract: a read gated behind a pending write on the same key is
// released by the covering Commit, and only after the write's own reply
// was delivered (pending is seq-sorted with insertion order stable for
// equal seqs, and writes register before reads can observe them).
func TestGateReadDeliveredAfterCoveringWrite(t *testing.T) {
	tr := New(0)
	var mu sync.Mutex
	var order []string
	record := func(tag string) func(bool) {
		return func(aborted bool) {
			mu.Lock()
			order = append(order, tag)
			if aborted {
				order = append(order, tag+"-aborted")
			}
			mu.Unlock()
		}
	}
	tr.RegisterWrite(5, []string{"k"}, record("write5"))
	gateRead(tr, []string{"k"}, record("read@5"))
	gateRead(tr, []string{"other"}, record("read-clean")) // no hazard: immediate
	mu.Lock()
	if len(order) != 1 || order[0] != "read-clean" {
		t.Fatalf("before commit, order = %v, want [read-clean]", order)
	}
	mu.Unlock()

	tr.Commit(4) // below the hazard: nothing releases
	mu.Lock()
	if len(order) != 1 {
		t.Fatalf("commit below hazard released replies: %v", order)
	}
	mu.Unlock()

	tr.Commit(5)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[1] != "write5" || order[2] != "read@5" {
		t.Fatalf("after commit, order = %v, want [read-clean write5 read@5]", order)
	}
}

// TestGateReadConcurrentCommitExactlyOnce hammers gated reads from many
// goroutines while a committer advances the watermark, verifying (under
// -race) that every reply is delivered exactly once and never aborted.
func TestGateReadConcurrentCommitExactlyOnce(t *testing.T) {
	const (
		writes  = 200
		readers = 8
		reads   = 200
	)
	tr := New(0)
	writeDelivered := make([]atomic.Int32, writes+1)
	var readDelivered atomic.Int64
	var wrongOrder atomic.Int64

	var wg sync.WaitGroup
	// Writer registers ascending hazards on a shared key.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); seq <= writes; seq++ {
			seq := seq
			tr.RegisterWrite(seq, []string{"hot"}, func(aborted bool) {
				if aborted {
					t.Error("write delivery aborted in commit-only test")
				}
				writeDelivered[seq].Add(1)
				// Ordering: by delivery time the watermark covers us.
				if tr.Committed() < seq {
					wrongOrder.Add(1)
				}
			})
		}
	}()
	// Readers gate on the hot key concurrently.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				done := make(chan struct{})
				gateRead(tr, []string{"hot"}, func(aborted bool) {
					if aborted {
						t.Error("read delivery aborted in commit-only test")
					}
					readDelivered.Add(1)
					close(done)
				})
				<-done
			}
		}()
	}
	// Committer drives the watermark up.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); seq <= writes; seq++ {
			tr.Commit(seq)
		}
	}()
	wg.Wait()
	tr.Commit(writes) // idempotent; everything at or below is released

	for seq := 1; seq <= writes; seq++ {
		if got := writeDelivered[seq].Load(); got != 1 {
			t.Fatalf("write %d delivered %d times", seq, got)
		}
	}
	if got := readDelivered.Load(); got != readers*reads {
		t.Fatalf("reads delivered %d, want %d", got, readers*reads)
	}
	if n := wrongOrder.Load(); n != 0 {
		t.Fatalf("%d write deliveries fired before their seq was committed", n)
	}
	if tr.PendingCount() != 0 {
		t.Fatalf("PendingCount = %d after full commit", tr.PendingCount())
	}
}

// TestGateReadConcurrentAbortExactlyOnce races gated reads against Abort:
// every gated reply must be delivered exactly once — either verified
// (released by a Commit that won the race) or aborted — and reads gated
// after the abort must fail fast.
func TestGateReadConcurrentAbortExactlyOnce(t *testing.T) {
	const readers = 8
	const reads = 100
	tr := New(0)
	tr.RegisterWrite(1000, []string{"hot"}, func(bool) {})

	var delivered, abortedCount atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < reads; i++ {
				gateRead(tr, []string{"hot"}, func(aborted bool) {
					delivered.Add(1)
					if aborted {
						abortedCount.Add(1)
					}
				})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		tr.Abort()
	}()
	close(start)
	wg.Wait()

	if got := delivered.Load(); got != readers*reads {
		t.Fatalf("delivered %d, want %d (exactly once per read)", got, readers*reads)
	}
	if abortedCount.Load() == 0 {
		t.Fatal("abort raced but no read observed it")
	}
	// Post-abort reads abort immediately, even hazard-free ones.
	fired := false
	gateRead(tr, []string{"cold"}, func(aborted bool) {
		fired = true
		if !aborted {
			t.Fatal("post-Abort read delivered verified")
		}
	})
	if !fired {
		t.Fatal("post-Abort read did not fire synchronously")
	}
}

// TestCoveringShedsStaleHazardsLazily: a hazard whose write has committed
// gates nothing, and the read that finds it removes it from the map.
func TestCoveringShedsStaleHazardsLazily(t *testing.T) {
	trk := New(0)
	trk.RegisterWrite(1, []string{"a", "b"}, func(bool) {})
	trk.RegisterWrite(2, []string{"b"}, func(bool) {})
	trk.Commit(1)
	if seq := trk.Covering(0, views([]string{"a", "b"})); seq != 2 {
		t.Fatalf("Covering = %d, want 2 (b was re-dirtied at 2)", seq)
	}
	if _, stale := trk.hazards["a"]; stale || len(trk.hazards) != 1 {
		t.Fatalf("hazards = %v, want only b", trk.hazards)
	}
	trk.Commit(2)
	if seq := trk.Covering(0, views([]string{"a", "b"})); seq != 0 || len(trk.hazards) != 0 {
		t.Fatalf("Covering = %d with hazards %v after full commit, want 0 and none", seq, trk.hazards)
	}
}

// TestCommitClearsStaleHazardsWholesale: past the shedding size, a commit
// that makes every hazard durable empties the map at once, and one that
// leaves a newer hazard pending sheds only the stale ones.
func TestCommitClearsStaleHazardsWholesale(t *testing.T) {
	trk := New(0)
	keys := make([]string, 1100)
	for i := range keys {
		keys[i] = fmt.Sprint("k", i)
	}
	trk.RegisterWrite(1, keys, func(bool) {})
	trk.RegisterWrite(2, keys[:3], func(bool) {})
	trk.Commit(1)
	if len(trk.hazards) != 3 {
		t.Fatalf("%d hazards after committing seq 1, want the 3 re-dirtied at 2", len(trk.hazards))
	}
	trk.RegisterWrite(3, keys, func(bool) {})
	trk.Commit(3)
	if len(trk.hazards) != 0 {
		t.Fatalf("%d hazards after every write committed, want none", len(trk.hazards))
	}
}

// TestCoveringWholeKeyspaceRead: a read of everything waits for the seq it
// is given (the sequencer tail) exactly while that seq is not durable, and
// an aborted tracker covers every read with a seq that fails it.
func TestCoveringWholeKeyspaceRead(t *testing.T) {
	trk := New(4)
	trk.RegisterWrite(6, []string{"k"}, func(bool) {})
	for _, c := range []struct {
		tail uint64
		keys []string
		want uint64
	}{
		{0, nil, 0}, {4, nil, 0}, {7, nil, 7}, {5, []string{"k"}, 6}, {7, []string{"k"}, 7},
	} {
		if got := trk.Covering(c.tail, views(c.keys)); got != c.want {
			t.Errorf("Covering(%d, %v) = %d, want %d", c.tail, c.keys, got, c.want)
		}
	}
	trk.Abort()
	seq := trk.Covering(0, nil)
	if seq == 0 {
		t.Fatal("aborted tracker let a read through")
	}
	failed := false
	trk.RegisterWrite(seq, nil, func(aborted bool) { failed = aborted })
	if !failed {
		t.Fatal("read registered at an aborted tracker's covering seq was not failed")
	}
}

// TestRegisterCommitCycleAllocatesNothing pins the steady state of the
// write path's tracker work: one entry registered, one commit releasing it.
func TestRegisterCommitCycleAllocatesNothing(t *testing.T) {
	trk := New(0)
	keys := []string{"k"}
	deliver := func(bool) {}
	seq := uint64(0)
	cycle := func() {
		seq++
		trk.RegisterWrite(seq, keys, deliver)
		trk.Commit(seq)
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("RegisterWrite+Commit allocates %.1f times per cycle, want 0", allocs)
	}
	// A window of entries in flight, as under a commit latency: still none.
	const window = 8
	for i := 0; i < window; i++ {
		seq++
		trk.RegisterWrite(seq, keys, deliver)
	}
	windowed := func() {
		seq++
		trk.RegisterWrite(seq, keys, deliver)
		trk.Commit(seq - window)
	}
	if allocs := testing.AllocsPerRun(1000, windowed); allocs != 0 {
		t.Fatalf("with %d entries in flight: %.1f allocations per cycle, want 0", window, allocs)
	}
}
