package tracker

import (
	"sync"
	"testing"
)

func TestWriteReleasedOnCommit(t *testing.T) {
	trk := New(0)
	got := make(chan bool, 1)
	trk.RegisterWrite(1, []string{"k"}, func(aborted bool) { got <- aborted })
	select {
	case <-got:
		t.Fatal("reply released before commit")
	default:
	}
	trk.Commit(1)
	if aborted := <-got; aborted {
		t.Fatal("committed write delivered as aborted")
	}
}

func TestAlreadyDurableWriteDeliversImmediately(t *testing.T) {
	trk := New(5)
	got := make(chan bool, 1)
	trk.RegisterWrite(3, []string{"k"}, func(aborted bool) { got <- aborted })
	select {
	case aborted := <-got:
		if aborted {
			t.Fatal("aborted")
		}
	default:
		t.Fatal("seq below watermark not delivered immediately")
	}
}

func TestCommitAdvancesWatermarkMonotonically(t *testing.T) {
	trk := New(0)
	var order []uint64
	var mu sync.Mutex
	for seq := uint64(1); seq <= 5; seq++ {
		s := seq
		trk.RegisterWrite(s, nil, func(bool) {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		})
	}
	trk.Commit(3) // releases 1..3 in order
	trk.Commit(2) // no-op (stale)
	trk.Commit(5)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 5 {
		t.Fatalf("released %d, want 5", len(order))
	}
	for i, s := range order {
		if s != uint64(i+1) {
			t.Fatalf("release order %v", order)
		}
	}
	if trk.Committed() != 5 {
		t.Fatalf("watermark = %d", trk.Committed())
	}
}

func TestAbortFailsAllPendingAndFuture(t *testing.T) {
	trk := New(0)
	w := make(chan bool, 1)
	r := make(chan bool, 1)
	trk.RegisterWrite(1, []string{"k"}, func(aborted bool) { w <- aborted })
	trk.RegisterWrite(1, nil, func(aborted bool) { r <- aborted })
	trk.Abort()
	if !<-w || !<-r {
		t.Fatal("pending replies not aborted")
	}
	// Registrations after abort fail immediately.
	after := make(chan bool, 1)
	trk.RegisterWrite(2, nil, func(aborted bool) { after <- aborted })
	if !<-after {
		t.Fatal("post-abort registration not failed")
	}
	afterRead := make(chan bool, 1)
	trk.RegisterWrite(0, nil, func(aborted bool) { afterRead <- aborted })
	if !<-afterRead {
		t.Fatal("post-abort registration at a reached seq not failed")
	}
}

// TestBatchedWritesShareOneSeq is the group-commit contract: many replies
// registered at the SAME seq (one batched log entry carrying many mutation
// records) are all withheld until that entry commits, and one Commit
// releases every one of them.
func TestBatchedWritesShareOneSeq(t *testing.T) {
	trk := New(0)
	const batch = 8
	got := make(chan int, batch)
	for i := 0; i < batch; i++ {
		i := i
		trk.RegisterWrite(7, []string{"k" + string(rune('a'+i))}, func(aborted bool) {
			if aborted {
				t.Error("batched write aborted on commit")
			}
			got <- i
		})
	}
	select {
	case <-got:
		t.Fatal("batched reply released before the covering entry committed")
	default:
	}
	if trk.PendingCount() != batch {
		t.Fatalf("PendingCount = %d, want %d", trk.PendingCount(), batch)
	}
	trk.Commit(7)
	seen := make(map[int]bool)
	for i := 0; i < batch; i++ {
		seen[<-got] = true
	}
	if len(seen) != batch {
		t.Fatalf("one Commit released %d distinct replies, want %d", len(seen), batch)
	}
	if trk.PendingCount() != 0 {
		t.Fatalf("PendingCount after commit = %d", trk.PendingCount())
	}
}

// TestAbortFailsEveryBatchedReply: when the node demotes with an unflushed
// or uncommitted batch, Abort must deliver an error to every reply gated
// at the shared seq — none may be dropped (a silent client hang) or
// delivered as success.
func TestAbortFailsEveryBatchedReply(t *testing.T) {
	trk := New(0)
	const batch = 5
	got := make(chan bool, batch+1)
	for i := 0; i < batch; i++ {
		trk.RegisterWrite(3, []string{"k"}, func(aborted bool) { got <- aborted })
	}
	trk.RegisterWrite(3, nil, func(aborted bool) { got <- aborted })
	trk.Abort()
	for i := 0; i < batch+1; i++ {
		select {
		case aborted := <-got:
			if !aborted {
				t.Fatal("batched reply delivered as success on abort")
			}
		default:
			t.Fatalf("only %d of %d batched replies delivered on abort", i, batch+1)
		}
	}
}

func TestAbortIdempotent(t *testing.T) {
	trk := New(0)
	trk.Abort()
	trk.Abort()
}

func TestPendingCount(t *testing.T) {
	trk := New(0)
	trk.RegisterWrite(1, nil, func(bool) {})
	trk.RegisterWrite(2, nil, func(bool) {})
	if trk.PendingCount() != 2 {
		t.Fatalf("PendingCount = %d", trk.PendingCount())
	}
	trk.Commit(1)
	if trk.PendingCount() != 1 {
		t.Fatalf("PendingCount after commit = %d", trk.PendingCount())
	}
}

func TestConcurrentCommitAndRegister(t *testing.T) {
	trk := New(0)
	const n = 2000
	var delivered sync.WaitGroup
	delivered.Add(n)
	go func() {
		for seq := uint64(1); seq <= n; seq++ {
			trk.Commit(seq)
		}
	}()
	for seq := uint64(1); seq <= n; seq++ {
		trk.RegisterWrite(seq, []string{"k"}, func(bool) { delivered.Done() })
	}
	trk.Commit(n) // in case registrations outran the committer
	delivered.Wait()
}

// TestAbortThenLateCommitDeliversExactlyOnce is the demotion-by-fencing
// sequence: a primary's append is in flight when another writer fences it
// (the node aborts its tracker), and the quorum acknowledgement for the
// old append arrives AFTER the abort. Each gated reply must be delivered
// exactly once — as an error at abort time — and the late Commit must not
// re-deliver or resurrect it.
func TestAbortThenLateCommitDeliversExactlyOnce(t *testing.T) {
	trk := New(0)
	var mu sync.Mutex
	calls := 0
	var sawAborted bool
	trk.RegisterWrite(3, []string{"k"}, func(aborted bool) {
		mu.Lock()
		calls++
		sawAborted = aborted
		mu.Unlock()
	})
	trk.Abort() // fenced: the node demotes and fails gated replies
	// The old entry still commits durably; its waiter reports late.
	trk.Commit(3)
	trk.Commit(5)
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("gated reply delivered %d times across abort+late-commit, want exactly 1", calls)
	}
	if !sawAborted {
		t.Fatal("fenced reply delivered as success instead of aborted")
	}
}
