package txlog

import (
	"context"
	"errors"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/netsim"
)

func newFaultService(t *testing.T, cfg Config) (*Service, *Log) {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	svc := NewService(cfg)
	l, err := svc.CreateLog("s1")
	if err != nil {
		t.Fatal(err)
	}
	return svc, l
}

func TestSingleAZDownAppendsCommitDegraded(t *testing.T) {
	svc, l := newFaultService(t, Config{CommitLatency: netsim.Zero{}})
	svc.AZ(0).SetDown(true)

	if svc.HealthyAZs() != 2 {
		t.Fatalf("HealthyAZs = %d, want 2", svc.HealthyAZs())
	}
	if !svc.Degraded() {
		t.Fatal("service with one AZ down should report degraded")
	}
	p, err := l.StartAppend(ZeroID, Entry{Type: EntryData, Payload: []byte("a")})
	if err != nil {
		t.Fatalf("append with one AZ down must succeed, got %v", err)
	}
	if p.Acks() != 2 || p.AZTotal() != 3 {
		t.Fatalf("acks = %d/%d, want 2/3", p.Acks(), p.AZTotal())
	}
	if _, err := p.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().DegradedAppends; got != 1 {
		t.Fatalf("DegradedAppends = %d, want 1", got)
	}
	// Degraded commits carry only the acked copies.
	if got := l.AZCopies(); got != 2 {
		t.Fatalf("AZCopies = %d, want 2", got)
	}
	served, dropped := svc.AZ(0).Acks()
	if served != 0 || dropped != 1 {
		t.Fatalf("down AZ acks = (%d served, %d dropped), want (0, 1)", served, dropped)
	}
}

func TestTwoAZsDownSurfacesUnavailable(t *testing.T) {
	svc, l := newFaultService(t, Config{CommitLatency: netsim.Zero{}})
	id1, err := l.Append(context.Background(), ZeroID, Entry{Type: EntryData, Payload: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	svc.AZ(0).SetDown(true)
	svc.AZ(1).SetDown(true)

	if svc.Degraded() {
		t.Fatal("below-quorum service is unavailable, not degraded")
	}
	_, err = l.StartAppend(id1, Entry{Type: EntryData, Payload: []byte("b")})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("append below quorum: err = %v, want ErrUnavailable", err)
	}
	if !IsTransient(err) {
		t.Fatal("ErrUnavailable must classify as transient")
	}
	// The failed append must not consume a sequence number: the identical
	// retry succeeds once a zone recovers.
	if tail := l.AssignedTail(); tail != id1 {
		t.Fatalf("failed append moved the tail to %v", tail)
	}
	svc.AZ(1).SetDown(false)
	if _, err := l.Append(context.Background(), id1, Entry{Type: EntryData, Payload: []byte("b")}); err != nil {
		t.Fatalf("retry after zone recovery failed: %v", err)
	}
}

func TestFlakyAZQuorumAbsorbsDrops(t *testing.T) {
	svc, l := newFaultService(t, Config{CommitLatency: netsim.Zero{}, Seed: 7})
	// One fully flaky zone: every append still reaches 2-of-3.
	svc.AZ(2).SetFlaky(1.0)
	after := ZeroID
	for i := 0; i < 20; i++ {
		p, err := l.StartAppend(after, Entry{Type: EntryData, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatalf("append %d with one flaky AZ: %v", i, err)
		}
		if p.Acks() != 2 {
			t.Fatalf("append %d acks = %d, want 2", i, p.Acks())
		}
		after = p.ID()
	}
	if got := l.Stats().DegradedAppends; got != 20 {
		t.Fatalf("DegradedAppends = %d, want 20", got)
	}
	// Two fully flaky zones: below quorum on every draw.
	svc.AZ(1).SetFlaky(1.0)
	if _, err := l.StartAppend(after, Entry{Type: EntryData}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("append with two flaky AZs: err = %v, want ErrUnavailable", err)
	}
	// Healing restores full-strength commits.
	svc.AZ(1).SetFlaky(0)
	svc.AZ(2).SetFlaky(0)
	p, err := l.StartAppend(after, Entry{Type: EntryData})
	if err != nil {
		t.Fatal(err)
	}
	if p.Acks() != 3 {
		t.Fatalf("healed append acks = %d, want 3", p.Acks())
	}
}

func TestSlowAZBoundsCommitLatencyWhenInQuorum(t *testing.T) {
	const extra = 8 * time.Millisecond
	svc, l := newFaultService(t, Config{CommitLatency: netsim.Zero{}, SlowExtra: netsim.Fixed(extra)})

	// All three healthy: the slow zone's ack is the 3rd-fastest, outside
	// the 2-of-3 quorum, so commits stay fast.
	svc.AZ(2).SetSlow(true)
	start := time.Now()
	id1, err := l.Append(context.Background(), ZeroID, Entry{Type: EntryData, Payload: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= extra {
		t.Fatalf("slow zone outside the quorum raised commit latency to %v", d)
	}
	// One zone down: the slow zone is now the quorum-th ack and its extra
	// latency bounds the commit.
	svc.AZ(0).SetDown(true)
	start = time.Now()
	if _, err := l.Append(context.Background(), id1, Entry{Type: EntryData, Payload: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < extra {
		t.Fatalf("commit took %v, want >= %v (slow zone in the quorum)", d, extra)
	}
}

// TestQuorumAckPicksQuorumthFastest pins which acknowledgement bounds a
// commit, on a simulated clock with fixed latencies so the due time is
// exact: the quorum-th fastest of the zones that answered, with the
// answers kept fastest-first for the az_ack spans.
func TestQuorumAckPicksQuorumthFastest(t *testing.T) {
	const base, extra = 2 * time.Millisecond, 7 * time.Millisecond
	for _, c := range []struct {
		name       string
		slow, down []int
		want       time.Duration // commit latency; 0 = ErrUnavailable
	}{
		{"no zone slow", nil, nil, base},
		{"one slow: the quorum is the two fast zones", []int{0}, nil, base},
		{"two slow", []int{0, 2}, nil, base + extra},
		{"one down, one slow", []int{1}, []int{0}, base + extra},
		{"two down", nil, []int{0, 1}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			clk := clock.NewSim(time.Unix(1700000000, 0))
			svc, l := newFaultService(t, Config{Clock: clk, CommitLatency: netsim.Fixed(base), SlowExtra: netsim.Fixed(extra)})
			for _, az := range c.slow {
				svc.AZ(az).SetSlow(true)
			}
			for _, az := range c.down {
				svc.AZ(az).SetDown(true)
			}
			p, err := l.StartAppend(ZeroID, Entry{Type: EntryData, Payload: []byte("a")})
			if c.want == 0 {
				if !errors.Is(err, ErrUnavailable) || l.AssignedTail() != ZeroID {
					t.Fatalf("below quorum: err = %v, tail %v; want ErrUnavailable and the tail unchanged", err, l.AssignedTail())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := p.due.Sub(clk.Now()); got != c.want {
				t.Fatalf("commit due in %v, want %v", got, c.want)
			}
			commit, acked, ok := svc.quorumAck()
			if !ok || commit != c.want || len(acked) != 3-len(c.down) {
				t.Fatalf("quorumAck = %v, %v, %v", commit, acked, ok)
			}
			for i, a := range acked {
				wantLat := base
				if i >= len(acked)-len(c.slow) {
					wantLat = base + extra // the slow zones sort last
				}
				if a.lat != wantLat || (i > 0 && acked[i-1].lat > a.lat) {
					t.Fatalf("acked = %v, want fastest-first with %d slow at the end", acked, len(c.slow))
				}
			}
		})
	}
}

// TestTailReaderReconnectsAcrossOutage is the satellite coverage for tail
// readers: a whole-service outage surfaces ErrUnavailable, the cursor
// stays put, and after healing the reader resumes from the next
// undelivered sequence — every entry exactly once, no gaps, no
// duplicates.
func TestTailReaderReconnectsAcrossOutage(t *testing.T) {
	svc, l := newFaultService(t, Config{CommitLatency: netsim.Zero{}})
	after := ZeroID
	for i := 0; i < 10; i++ {
		after = appendData(t, l, after, "x")
	}

	r := l.NewReader(ZeroID)
	var got []uint64
	for i := 0; i < 5; i++ {
		e, ok, err := r.TryNext()
		if err != nil || !ok {
			t.Fatalf("read %d: ok=%v err=%v", i, ok, err)
		}
		got = append(got, e.ID.Seq)
	}

	svc.SetUnavailable(true)
	if _, _, err := r.TryNext(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("TryNext during outage: err = %v, want ErrUnavailable", err)
	}
	// A below-quorum zone set is the same condition from the reader's side.
	svc.SetUnavailable(false)
	svc.AZ(0).SetDown(true)
	svc.AZ(1).SetDown(true)
	if _, _, err := r.TryNext(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("TryNext below quorum: err = %v, want ErrUnavailable", err)
	}
	svc.AZ(0).SetDown(false)
	svc.AZ(1).SetDown(false)

	// Service healed: more entries arrive, and the reader drains the rest
	// from where it left off.
	for i := 0; i < 5; i++ {
		after = appendData(t, l, after, "y")
	}
	for {
		e, ok, err := r.TryNext()
		if err != nil {
			t.Fatalf("read after heal: %v", err)
		}
		if !ok {
			break
		}
		got = append(got, e.ID.Seq)
	}
	if len(got) != 15 {
		t.Fatalf("delivered %d entries, want 15", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d: gap or duplicate across the outage", i, seq)
		}
	}
}

// TestQuorumConfigOverride checks a stricter write quorum is honored.
func TestQuorumConfigOverride(t *testing.T) {
	svc, l := newFaultService(t, Config{CommitLatency: netsim.Zero{}, Quorum: 3})
	if _, err := l.Append(context.Background(), ZeroID, Entry{Type: EntryData}); err != nil {
		t.Fatal(err)
	}
	svc.AZ(0).SetDown(true)
	if _, err := l.StartAppend(EntryID{Seq: 1}, Entry{Type: EntryData}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("append under quorum=3 with one AZ down: err = %v, want ErrUnavailable", err)
	}
}
