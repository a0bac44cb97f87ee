package retry

import (
	"testing"
	"time"
)

func TestBackoffJitterBoundedAndGrowing(t *testing.T) {
	p := Policy{Base: time.Millisecond, Max: 8 * time.Millisecond, Seed: 1}
	b := p.New()
	ceil := time.Millisecond
	for i := 0; i < 12; i++ {
		d := b.Next()
		if d < minSleep {
			t.Fatalf("draw %d = %v below the %v floor", i, d, minSleep)
		}
		if d > ceil {
			t.Fatalf("draw %d = %v above the cap %v", i, d, ceil)
		}
		if ceil < 8*time.Millisecond {
			ceil *= 2
		}
	}
	if b.Slept() <= 0 {
		t.Fatalf("Slept = %v, want > 0", b.Slept())
	}
}

func TestBackoffDeterministicUnderSeed(t *testing.T) {
	p := Policy{Base: time.Millisecond, Max: 16 * time.Millisecond, Seed: 42}
	a, b := p.New(), p.New()
	for i := 0; i < 10; i++ {
		if da, db := a.Next(), b.Next(); da != db {
			t.Fatalf("draw %d diverged under the same seed: %v vs %v", i, da, db)
		}
	}
}

func TestSaltSeedDistinct(t *testing.T) {
	if SaltSeed(5) == SaltSeed(5) {
		t.Fatal("SaltSeed must differ across calls with the same base")
	}
}
