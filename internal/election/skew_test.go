package election

import (
	"testing"
	"time"

	"memorydb/internal/clock"
)

func TestSkewedClockOffsetAndDrift(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	// Slow clock: 200ms behind and running at half speed.
	skew := NewSkewedClock(sim, -200*time.Millisecond, 0.5)
	if got := skew.Now().Sub(sim.Now()); got != -200*time.Millisecond {
		t.Fatalf("initial offset = %v", got)
	}
	sim.Advance(time.Second)
	// One real second elapsed; the slow clock saw only 500ms of it.
	want := time.Unix(0, 0).Add(-200*time.Millisecond + 500*time.Millisecond)
	if !skew.Now().Equal(want) {
		t.Fatalf("skewed now = %v, want %v", skew.Now(), want)
	}
	// Sleeping 100ms of skewed time costs 200ms of real time.
	if d := skew.scale(100 * time.Millisecond); d != 200*time.Millisecond {
		t.Fatalf("scaled sleep = %v", d)
	}
	// A fast clock shortens sleeps instead.
	fast := NewSkewedClock(sim, 0, 2.0)
	if d := fast.scale(100 * time.Millisecond); d != 50*time.Millisecond {
		t.Fatalf("fast scaled sleep = %v", d)
	}
}

func TestSeededSkewDeterministic(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	a := NewSeededSkew(sim, 42, 500*time.Millisecond, 0.5)
	b := NewSeededSkew(sim, 42, 500*time.Millisecond, 0.5)
	if a.Offset() != b.Offset() || a.Rate() != b.Rate() {
		t.Fatalf("same seed drew different skews: (%v, %v) vs (%v, %v)",
			a.Offset(), a.Rate(), b.Offset(), b.Rate())
	}
	c := NewSeededSkew(sim, 43, 500*time.Millisecond, 0.5)
	if a.Offset() == c.Offset() && a.Rate() == c.Rate() {
		t.Fatal("different seeds drew identical skew")
	}
	if c.Offset() < -500*time.Millisecond || c.Offset() > 500*time.Millisecond {
		t.Fatalf("offset %v outside bound", c.Offset())
	}
	if c.Rate() < 0.5 || c.Rate() > 1.5 {
		t.Fatalf("rate %v outside bound", c.Rate())
	}
}

// A primary on a slow clock believes its lease lives twice as long as the
// honest observers do. The lease abstraction itself cannot save us — this
// test documents that the window exists (lease still "valid" on the slow
// clock after the honest backoff elapsed), which is exactly why commit
// fencing, not clocks, is the safety mechanism (§4.1). The core-level
// TestSkewedPrimaryIsFenced proves the fencing half.
func TestSkewedLeaseOutlivesHonestBackoff(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	slow := NewSkewedClock(sim, 0, 0.5)
	c := cfg(slow, "skewed")
	lease := NewLease(c, 1)
	honest := NewObserver(cfg(sim, "honest"))
	sim.Advance(131 * time.Millisecond)
	if sim.Now().Before(honest.CampaignAt()) {
		t.Fatal("honest backoff should have elapsed")
	}
	if !lease.Valid() {
		t.Fatal("slow-clock lease should still look valid — that is the hazard")
	}
}
