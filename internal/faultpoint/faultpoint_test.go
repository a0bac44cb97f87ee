package faultpoint

import (
	"bytes"
	"testing"
	"time"
)

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	if d := r.Hit(SiteFlushPre); d.Kind != None {
		t.Fatalf("nil registry fired %v", d.Kind)
	}
	if r.Hits(SiteFlushPre) != 0 || r.Fired(SiteFlushPre, Crash) != 0 {
		t.Fatal("nil registry accounted hits")
	}
}

func TestArmFiresOnceAfterN(t *testing.T) {
	r := New(1)
	r.Arm(SiteFlushPre, Crash, 2)
	for i := 0; i < 2; i++ {
		if d := r.Hit(SiteFlushPre); d.Kind != None {
			t.Fatalf("hit %d fired early: %v", i, d.Kind)
		}
	}
	if d := r.Hit(SiteFlushPre); d.Kind != Crash {
		t.Fatalf("3rd hit: got %v, want crash", d.Kind)
	}
	if d := r.Hit(SiteFlushPre); d.Kind != None {
		t.Fatalf("one-shot fired twice: %v", d.Kind)
	}
	if got := r.Fired(SiteFlushPre, Crash); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
	if got := r.Hits(SiteFlushPre); got != 4 {
		t.Fatalf("Hits = %d, want 4", got)
	}
	if r.ArmedCount(SiteFlushPre) != 0 {
		t.Fatal("armed fault not consumed")
	}
}

func TestPlanIsSeededAndDeterministic(t *testing.T) {
	run := func(seed int64) []Kind {
		r := New(seed)
		r.SetPlan(SiteAppendPre, 0.5, time.Millisecond, Error, Delay)
		out := make([]Kind, 64)
		for i := range out {
			out[i] = r.Hit(SiteAppendPre).Kind
		}
		return out
	}
	a, b := run(42), run(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != None {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("plan with prob 0.5 never fired in 64 hits")
	}
}

func TestCorruptionHelpers(t *testing.T) {
	r := New(7)
	orig := bytes.Repeat([]byte{0xAB}, 128)
	flipped := r.FlipByte(orig)
	if bytes.Equal(orig, flipped) {
		t.Fatal("FlipByte returned identical bytes")
	}
	if len(flipped) != len(orig) {
		t.Fatal("FlipByte changed length")
	}
	torn := r.TornWrite(orig)
	if len(torn) >= len(orig) {
		t.Fatalf("TornWrite did not truncate: %d >= %d", len(torn), len(orig))
	}
}

func TestParse(t *testing.T) {
	r, err := Parse("core.flush.pre=crash@3; core.append.pre=error:1.0 ,core.renew=delay:2ms:1.0", 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if d := r.Hit(SiteFlushPre); d.Kind != None {
			t.Fatalf("flush.pre fired early at %d", i)
		}
	}
	if d := r.Hit(SiteFlushPre); d.Kind != Crash {
		t.Fatalf("flush.pre: got %v, want crash", d.Kind)
	}
	if d := r.Hit(SiteAppendPre); d.Kind != Error {
		t.Fatalf("append.pre: got %v, want error", d.Kind)
	}
	if d := r.Hit(SiteRenew); d.Kind != Delay || d.Delay != 2*time.Millisecond {
		t.Fatalf("renew: got %v/%v, want delay/2ms", d.Kind, d.Delay)
	}
	if _, err := Parse("core.renew", 0); err == nil {
		t.Fatal("clause without = accepted")
	}
	if _, err := Parse("x=explode", 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestAllSitesPreRegistered(t *testing.T) {
	r := New(0)
	names := r.Names()
	if len(names) != len(AllSites()) {
		t.Fatalf("registered %d sites, want %d", len(names), len(AllSites()))
	}
}

// TestStandingPlanDrawsNothing pins what makes a level safe to raise in a
// fixed-seed schedule: a probability-1, one-kind plan hit many times on
// one site leaves a probabilistic site on the same seed firing exactly the
// sequence it fires on a registry without the level.
func TestStandingPlanDrawsNothing(t *testing.T) {
	plain, leveled := New(42), New(42)
	for _, r := range []*Registry{plain, leveled} {
		r.SetPlan(SiteAppendPre, 0.5, time.Millisecond, Error, Delay)
	}
	leveled.SetPlan(SiteNodePartition, 1, 0, Error)
	var announced []string
	leveled.SetObserver(func(site string, _ Kind) { announced = append(announced, site) })
	for i := 0; i < 64; i++ {
		for j := 0; j < 7; j++ {
			if d := leveled.Hit(SiteNodePartition); d.Kind != Error {
				t.Fatalf("standing plan hit %d/%d: got %v, want error", i, j, d.Kind)
			}
		}
		if a, b := plain.Hit(SiteAppendPre), leveled.Hit(SiteAppendPre); a != b {
			t.Fatalf("hit %d: the level shifted the seeded schedule: %v vs %v", i, a, b)
		}
	}
	if got := leveled.Standing(SiteNodePartition); got != Error {
		t.Fatalf("Standing = %v, want error", got)
	}
	if got := leveled.Standing(SiteAppendPre); got != None {
		t.Fatalf("Standing of a probabilistic plan = %v, want none", got)
	}
	if got := leveled.Hits(SiteNodePartition); got != 64*7 {
		t.Fatalf("Hits = %d, want %d: Standing must count no hit", got, 64*7)
	}
	partition := 0
	for _, site := range announced {
		if site == SiteNodePartition {
			partition++
		}
	}
	if partition != 1 {
		t.Fatalf("observer saw the level %d times, want once", partition)
	}
	leveled.SetPlan(SiteNodePartition, 0, 0)
	if d := leveled.Hit(SiteNodePartition); d.Kind != None || leveled.Standing(SiteNodePartition) != None {
		t.Fatalf("cleared level still fires: %v", d.Kind)
	}
}

// TestHitUnarmedDoesNotAllocate: every append and request hits a site, so
// an unarmed one must cost no allocation.
func TestHitUnarmedDoesNotAllocate(t *testing.T) {
	r, site := New(1), ZoneAckSite(0)
	if n := testing.AllocsPerRun(1000, func() { r.Hit(site) }); n != 0 {
		t.Fatalf("Hit on an unarmed site allocates %.1f times", n)
	}
}
