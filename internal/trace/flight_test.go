package trace

import (
	"strings"
	"sync"
	"testing"
)

// The flight ring must not lose events under concurrent writers: every
// Record claims a distinct sequence number, and as long as fewer
// events than the ring size are written, every one must surface in
// Events(). Run with -race (scripts/check.sh covers this package).
func TestFlightConcurrentWritersLoseNothing(t *testing.T) {
	const writers, perWriter = 8, 32
	f := NewFlight("n1", writers*perWriter+16)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Alternate kinds so role transitions interleave with
				// other traffic, as on a real failover.
				if i%2 == 0 {
					f.Record(EvRoleChange, uint64(w), "primary")
				} else {
					f.Record(EvFaultFire, uint64(w), "core.append.pre")
				}
			}
		}(w)
	}
	wg.Wait()
	if got := f.Total(); got != writers*perWriter {
		t.Fatalf("total = %d, want %d", got, writers*perWriter)
	}
	evs := f.Events()
	if len(evs) != writers*perWriter {
		t.Fatalf("retained %d events, want %d", len(evs), writers*perWriter)
	}
	seen := map[uint64]bool{}
	roles := 0
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
		if e.Kind == EvRoleChange {
			roles++
		}
		if e.Node != "n1" {
			t.Fatalf("node = %q", e.Node)
		}
	}
	if roles != writers*perWriter/2 {
		t.Fatalf("role_change events = %d, want %d", roles, writers*perWriter/2)
	}
}

// Recording with a pre-existing detail string must not allocate — the
// recorder is always on, including on the write hot path's rare-event
// branches.
func TestFlightRecordZeroAlloc(t *testing.T) {
	f := NewFlight("n1", 64)
	if n := testing.AllocsPerRun(1000, func() {
		f.Record(EvRoleChange, 7, "replica")
	}); n != 0 {
		t.Fatalf("Record allocates %v/op, want 0", n)
	}
}

// An unsampled Sample() call (the steady state at low rates) must stay
// allocation-free too.
func TestCollectorSampleMissZeroAlloc(t *testing.T) {
	c := NewCollector(0, 42, 64)
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Sample(); ok {
			t.Fatal("rate 0 sampled")
		}
	}); n != 0 {
		t.Fatalf("Sample (rate 0) allocates %v/op, want 0", n)
	}
}

func TestFlightRingBounded(t *testing.T) {
	f := NewFlight("n1", 8)
	for i := 1; i <= 20; i++ {
		f.Record(EvAlarm, uint64(i), "WAIT")
	}
	evs := f.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d, want 8", len(evs))
	}
	for i, e := range evs {
		if want := uint64(13 + i); e.Seq != want {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestMergeOrdersAcrossNodes(t *testing.T) {
	a, b := NewFlight("a", 16), NewFlight("b", 16)
	a.Record(EvKill, 0, "")
	b.Record(EvRoleChange, 3, "primary")
	a.Record(EvRestart, 0, "")
	merged := Merge(a, b, nil)
	if len(merged) != 3 {
		t.Fatalf("merged %d events, want 3", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].At < merged[i-1].At {
			t.Fatalf("timeline out of order at %d", i)
		}
	}
	text := FormatTimeline(merged)
	for _, want := range []string{"kill", "role_change", "restart", "pos=3", "primary"} {
		if !strings.Contains(text, want) {
			t.Fatalf("timeline missing %q:\n%s", want, text)
		}
	}
}
