package tracker

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestGateReadDeliveredAfterCoveringWrite pins the delivery ordering
// contract: a read parked at a pending write's seq is released by the
// covering Commit, and only after the write's own reply was delivered
// (pending is seq-sorted with insertion order stable for equal seqs, and
// writes register before reads can observe them).
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
	tr.RegisterWrite(5, nil, record("read@5"))
	tr.RegisterWrite(0, nil, record("read-clean")) // nothing to wait for: immediate
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

// TestGateReadConcurrentCommitExactlyOnce hammers reads parked at the
// newest registered write from many goroutines while a committer advances
// the watermark, verifying (under -race) that every reply is delivered
// exactly once and never aborted.
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
	var newest atomic.Uint64 // the highest seq the writer has registered

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
			newest.Store(seq)
		}
	}()
	// Readers gate on the hot key concurrently.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				done := make(chan struct{})
				tr.RegisterWrite(newest.Load(), nil, func(aborted bool) {
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

// TestGateReadConcurrentAbortExactlyOnce races parked reads against Abort:
// every parked reply must be delivered exactly once — either verified
// (released by a Commit that won the race) or aborted — and reads parked
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
				tr.RegisterWrite(1000, nil, func(aborted bool) {
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
	// Post-abort reads abort immediately, even ones with nothing to wait for.
	fired := false
	tr.RegisterWrite(0, nil, func(aborted bool) {
		fired = true
		if !aborted {
			t.Fatal("post-Abort read delivered verified")
		}
	})
	if !fired {
		t.Fatal("post-Abort read did not fire synchronously")
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
