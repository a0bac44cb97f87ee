package txlog

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/netsim"
)

func newTestLog(t *testing.T, commit netsim.LatencyModel) *Log {
	t.Helper()
	svc := NewService(Config{Clock: clock.NewReal(), CommitLatency: commit})
	l, err := svc.CreateLog("s1")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func appendData(t *testing.T, l *Log, after EntryID, payload string) EntryID {
	t.Helper()
	id, err := l.Append(context.Background(), after, Entry{Type: EntryData, Payload: []byte(payload)})
	if err != nil {
		t.Fatalf("Append after %v: %v", after, err)
	}
	return id
}

func TestAppendAssignsSequentialIDs(t *testing.T) {
	l := newTestLog(t, netsim.Zero{})
	id1 := appendData(t, l, ZeroID, "a")
	id2 := appendData(t, l, id1, "b")
	if id1.Seq != 1 || id2.Seq != 2 {
		t.Fatalf("ids = %v %v", id1, id2)
	}
	if l.CommittedTail() != id2 {
		t.Fatalf("tail = %v", l.CommittedTail())
	}
}

func TestConditionalAppendFailsOnStaleTail(t *testing.T) {
	l := newTestLog(t, netsim.Zero{})
	id1 := appendData(t, l, ZeroID, "a")
	if _, err := l.Append(context.Background(), ZeroID, Entry{Type: EntryData}); !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("err = %v, want ErrConditionFailed", err)
	}
	// Correct tail works.
	appendData(t, l, id1, "b")
}

func TestPipelinedAppendsCommitInOrder(t *testing.T) {
	l := newTestLog(t, netsim.NewUniform(100*time.Microsecond, 2*time.Millisecond, 3))
	const n = 50
	var pendings []*Pending
	after := ZeroID
	for i := 0; i < n; i++ {
		p, err := l.StartAppend(after, Entry{Type: EntryData, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		after = p.ID()
		pendings = append(pendings, p)
	}
	// Waits complete out of order internally but each Wait implies its
	// prefix is committed.
	var wg sync.WaitGroup
	for _, p := range pendings {
		wg.Add(1)
		go func(p *Pending) {
			defer wg.Done()
			id, err := p.Wait(context.Background())
			if err != nil {
				t.Errorf("Wait: %v", err)
				return
			}
			if l.CommittedTail().Seq < id.Seq {
				t.Errorf("Wait(%v) returned before commit watermark reached it", id)
			}
		}(p)
	}
	wg.Wait()
	if l.CommittedTail().Seq != n {
		t.Fatalf("tail = %v, want %d", l.CommittedTail(), n)
	}
}

func TestReaderSeesCommittedOrder(t *testing.T) {
	l := newTestLog(t, netsim.Zero{})
	after := ZeroID
	for i := 0; i < 10; i++ {
		after = appendData(t, l, after, string(rune('a'+i)))
	}
	r := l.NewReader(ZeroID)
	for i := 0; i < 10; i++ {
		e, ok, err := r.TryNext()
		if err != nil || !ok {
			t.Fatalf("TryNext %d: %v %v", i, ok, err)
		}
		if string(e.Payload) != string(rune('a'+i)) {
			t.Fatalf("entry %d payload = %q", i, e.Payload)
		}
	}
	if _, ok, _ := r.TryNext(); ok {
		t.Fatal("read past tail")
	}
}

func TestLeadershipEpochMonotonic(t *testing.T) {
	l := newTestLog(t, netsim.Zero{})
	id, err := l.Append(context.Background(), ZeroID, Entry{Type: EntryLeadership, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A duplicate/stale claim with the same epoch is rejected even at the
	// right tail.
	if _, err := l.Append(context.Background(), id, Entry{Type: EntryLeadership, Epoch: 1}); !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("stale epoch accepted: %v", err)
	}
	if _, err := l.Append(context.Background(), id, Entry{Type: EntryLeadership, Epoch: 2}); err != nil {
		t.Fatalf("next epoch rejected: %v", err)
	}
	if l.CurrentEpoch() != 2 {
		t.Fatalf("epoch = %d", l.CurrentEpoch())
	}
}

func TestLeadershipRaceSingleWinner(t *testing.T) {
	l := newTestLog(t, netsim.Zero{})
	tail := appendData(t, l, ZeroID, "w")
	var wins int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(epoch uint64) {
			defer wg.Done()
			_, err := l.Append(context.Background(), tail, Entry{Type: EntryLeadership, Epoch: epoch})
			if err == nil {
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}(uint64(i) + 1)
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("wins = %d, want exactly 1", wins)
	}
}

func TestChecksumChaining(t *testing.T) {
	l := newTestLog(t, netsim.Zero{})
	id1 := appendData(t, l, ZeroID, "abc")
	id2 := appendData(t, l, id1, "def")
	s1, err := l.ChecksumAt(id1)
	if err != nil {
		t.Fatal(err)
	}
	want := ChainChecksum(ChainChecksum(0, []byte("abc")), []byte("def"))
	_, got := l.RunningChecksum()
	if got != want {
		t.Fatalf("running checksum = %#x, want %#x", got, want)
	}
	if s2, _ := l.ChecksumAt(id2); s2 != want {
		t.Fatalf("ChecksumAt(id2) = %#x, want %#x", s2, want)
	}
	if ChainChecksum(s1, []byte("def")) != want {
		t.Fatal("chaining from prefix does not reproduce the running checksum")
	}
}

func TestChecksumEntryPayloadRoundTrip(t *testing.T) {
	if got := DecodeChecksumPayload(EncodeChecksumPayload(0xdeadbeefcafe)); got != 0xdeadbeefcafe {
		t.Fatalf("round trip = %#x", got)
	}
	if DecodeChecksumPayload([]byte("short")) != 0 {
		t.Fatal("bad payload must decode to 0")
	}
}

func TestTrim(t *testing.T) {
	// Five entries per segment, so ids[4] (seq 5) is a segment boundary:
	// entries 1-5 seal into one segment, 6-10 into a second.
	svc := NewService(Config{Clock: clock.NewReal(), SegmentEntries: 5})
	l, err := svc.CreateLog("s1")
	if err != nil {
		t.Fatal(err)
	}
	after := ZeroID
	var ids []EntryID
	for i := 0; i < 10; i++ {
		after = appendData(t, l, after, string(rune('0'+i)))
		ids = append(ids, after)
	}
	sumAt5, _ := l.ChecksumAt(ids[4])
	// Trimming mid-segment is a no-op: only whole sealed segments go.
	if n := l.Trim(ids[2]); n != 0 {
		t.Fatalf("mid-segment trim dropped %d segments, want 0", n)
	}
	if n := l.Trim(ids[4]); n != 1 {
		t.Fatalf("boundary trim dropped %d segments, want 1", n)
	}
	if base := l.TrimBase(); base != ids[4] {
		t.Fatalf("trim base = %v, want %v", base, ids[4])
	}
	// Reads before the trim point fail.
	r := l.NewReader(ZeroID)
	if _, _, err := r.TryNext(); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("err = %v, want ErrTrimmed", err)
	}
	// Reads after the trim point still work.
	r2 := l.NewReader(ids[4])
	e, ok, err := r2.TryNext()
	if err != nil || !ok || string(e.Payload) != "5" {
		t.Fatalf("TryNext after trim: %v %v %q", ok, err, e.Payload)
	}
	// Checksum at the trim point is preserved.
	if got, err := l.ChecksumAt(ids[4]); err != nil || got != sumAt5 {
		t.Fatalf("ChecksumAt(trim) = %#x %v, want %#x", got, err, sumAt5)
	}
	if _, err := l.ChecksumAt(ids[2]); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("ChecksumAt before trim: %v", err)
	}
	// Appends continue normally.
	appendData(t, l, ids[9], "new")
}

func TestServiceUnavailable(t *testing.T) {
	svc := NewService(Config{})
	l, _ := svc.CreateLog("s1")
	svc.SetUnavailable(true)
	if _, err := l.Append(context.Background(), ZeroID, Entry{Type: EntryData}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	svc.SetUnavailable(false)
	if _, err := l.Append(context.Background(), ZeroID, Entry{Type: EntryData}); err != nil {
		t.Fatalf("err after recovery = %v", err)
	}
}

func TestPerLogFailInjection(t *testing.T) {
	l := newTestLog(t, netsim.Zero{})
	l.FailAppends(true)
	if _, err := l.Append(context.Background(), ZeroID, Entry{Type: EntryData}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	l.FailAppends(false)
	appendData(t, l, ZeroID, "ok")
}

func TestCreateDeleteLog(t *testing.T) {
	svc := NewService(Config{})
	if _, err := svc.CreateLog("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateLog("a"); err == nil {
		t.Fatal("duplicate CreateLog succeeded")
	}
	if err := svc.DeleteLog("a"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteLog("a"); !errors.Is(err, ErrNoSuchLog) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := svc.Log("a"); ok {
		t.Fatal("deleted log still resolvable")
	}
}

func TestAppendToDeletedLogFails(t *testing.T) {
	svc := NewService(Config{})
	l, _ := svc.CreateLog("a")
	svc.DeleteLog("a")
	if _, err := l.Append(context.Background(), ZeroID, Entry{Type: EntryData}); !errors.Is(err, ErrNoSuchLog) {
		t.Fatalf("err = %v", err)
	}
}

func TestGet(t *testing.T) {
	l := newTestLog(t, netsim.Zero{})
	id := appendData(t, l, ZeroID, "x")
	e, ok := l.Get(id)
	if !ok || string(e.Payload) != "x" {
		t.Fatalf("Get = %v %v", e, ok)
	}
	if _, ok := l.Get(EntryID{Seq: 99}); ok {
		t.Fatal("Get past tail succeeded")
	}
}

func TestAZCopiesAccounting(t *testing.T) {
	svc := NewService(Config{AZCount: 3})
	l, _ := svc.CreateLog("s1")
	after := ZeroID
	for i := 0; i < 4; i++ {
		after = appendData(t, l, after, "x")
	}
	if got := l.AZCopies(); got != 12 {
		t.Fatalf("AZCopies = %d, want 12", got)
	}
}

func TestWaitAbandonedStillCommits(t *testing.T) {
	l := newTestLog(t, netsim.Fixed(20*time.Millisecond))
	p, err := l.StartAppend(ZeroID, Entry{Type: EntryData, Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := p.Wait(ctx); err == nil {
		t.Fatal("expected cancelled wait")
	}
	// The entry still commits: the caller abandoned the wait, not the
	// append.
	deadline := time.Now().Add(time.Second)
	for l.CommittedTail() != p.ID() {
		if time.Now().After(deadline) {
			t.Fatal("abandoned append never committed")
		}
		time.Sleep(time.Millisecond)
	}
}

// In-flight appends cost no goroutine each: a thousand of them wait on the
// log's one committer, which is asleep on one timer — the head's — and one
// Advance past their due time completes all of them, in order.
func TestInflightAppendsShareOneCommitter(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	l := segTestLog(t, Config{Clock: sim, CommitLatency: netsim.Fixed(50 * time.Millisecond)})
	before := runtime.NumGoroutine()
	const n = 1000
	pendings := make([]*Pending, n)
	after := ZeroID
	for i := range pendings {
		p, err := l.StartAppend(after, Entry{Type: EntryData, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		pendings[i], after = p, p.ID()
	}
	if grew := runtime.NumGoroutine() - before; grew > 2 {
		t.Fatalf("%d appends in flight grew the process by %d goroutines, want <= 2", n, grew)
	}
	waitTimers(t, sim, 1)
	sim.Advance(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if id, err := pendings[n-1].Wait(ctx); err != nil || l.CommittedTail() != id {
		t.Fatalf("last append: %v, committed tail %v, want %v", err, l.CommittedTail(), id)
	}
	for i, p := range pendings {
		select {
		case <-p.done:
		default:
			t.Fatalf("append %d still pending after append %d completed", i+1, n)
		}
	}
}

// Destroying a log fails the appends still in flight on it, at once: a
// waiter is never told an entry committed that no log holds, and is not
// left waiting for a due time nobody will act on.
func TestDeleteLogFailsInflightAppends(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	svc := NewService(Config{Clock: sim, CommitLatency: netsim.Fixed(50 * time.Millisecond)})
	l, err := svc.CreateLog("a")
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.StartAppend(ZeroID, Entry{Type: EntryData, Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteLog("a"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := p.Wait(ctx); !errors.Is(err, ErrNoSuchLog) {
		t.Fatalf("Wait on a destroyed log: %v, want ErrNoSuchLog", err)
	}
}
