package netsim

import (
	"sync"
	"testing"
	"time"
)

func TestFixedAndZero(t *testing.T) {
	if (Zero{}).Sample() != 0 {
		t.Fatal("Zero")
	}
	if Fixed(5*time.Millisecond).Sample() != 5*time.Millisecond {
		t.Fatal("Fixed")
	}
}

func TestUniformBounds(t *testing.T) {
	u := NewUniform(time.Millisecond, 5*time.Millisecond, 1)
	for i := 0; i < 1000; i++ {
		d := u.Sample()
		if d < time.Millisecond || d > 5*time.Millisecond {
			t.Fatalf("sample %v out of bounds", d)
		}
	}
	// Degenerate range returns Min.
	u2 := NewUniform(time.Millisecond, time.Millisecond, 1)
	if u2.Sample() != time.Millisecond {
		t.Fatal("degenerate uniform")
	}
}

func TestLogNormalishTail(t *testing.T) {
	l := NewLogNormalish(2*time.Millisecond, time.Millisecond, 1)
	var sum time.Duration
	max := time.Duration(0)
	const n = 10000
	for i := 0; i < n; i++ {
		d := l.Sample()
		if d < 2*time.Millisecond {
			t.Fatalf("sample %v below base", d)
		}
		sum += d
		if d > max {
			max = d
		}
	}
	mean := sum / n
	if mean < 2500*time.Microsecond || mean > 3500*time.Microsecond {
		t.Fatalf("mean = %v, want ~3ms", mean)
	}
	if max < 6*time.Millisecond {
		t.Fatalf("max = %v — exponential tail missing", max)
	}
}

func TestModelsConcurrentSafe(t *testing.T) {
	models := []LatencyModel{
		NewUniform(0, time.Millisecond, 1),
		NewLogNormalish(time.Millisecond, time.Millisecond, 2),
	}
	var wg sync.WaitGroup
	for _, m := range models {
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(m LatencyModel) {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					m.Sample()
				}
			}(m)
		}
	}
	wg.Wait()
}
