package election

import (
	"math"
	"time"

	"memorydb/internal/clock"
)

// SkewedClock wraps a clock with a fixed offset and a drift rate — the
// fault model for a node whose local time is wrong. Leases are the one
// place MemoryDB depends on clocks at all (§4.1: bounded clock drift is
// assumed only for lease validity, never for correctness of the log), so
// the interesting fault is a primary whose slow clock makes it believe its
// lease is still valid long after every honest observer saw it expire.
// Safety must then come from fencing: the deposed primary's conditional
// appends fail because a successor's claim entry moved the tail, so none
// of its writes can commit — regardless of what its clock says.
//
// Now() = epoch + offset + (inner.Now() - epoch) * rate, so rate < 1 is a
// slow clock (time dilates), rate > 1 a fast one. Sleep and After scale
// the requested duration by 1/rate, rounded up so none fires early: a slow
// clock's "100ms" lasts longer in real time, like a slow oscillator.
type SkewedClock struct {
	inner  clock.Clock
	offset time.Duration
	rate   float64
	epoch  time.Time
}

// NewSkewedClock wraps inner with a constant offset and drift rate.
// rate must be > 0; 1.0 means no drift.
func NewSkewedClock(inner clock.Clock, offset time.Duration, rate float64) *SkewedClock {
	if rate <= 0 {
		rate = 1
	}
	return &SkewedClock{inner: inner, offset: offset, rate: rate, epoch: inner.Now()}
}

// Now returns the skewed wall-clock reading.
func (s *SkewedClock) Now() time.Time {
	elapsed := s.inner.Now().Sub(s.epoch)
	return s.epoch.Add(s.offset + time.Duration(float64(elapsed)*s.rate))
}

// Sleep sleeps for d of *skewed* time: a slow clock sleeps longer in real
// time, a fast one shorter.
func (s *SkewedClock) Sleep(d time.Duration) { s.inner.Sleep(s.scale(d)) }

// After fires after d of skewed time.
func (s *SkewedClock) After(d time.Duration) <-chan time.Time { return s.inner.After(s.scale(d)) }

// AfterFunc calls f after d of skewed time.
func (s *SkewedClock) AfterFunc(d time.Duration, f func()) { s.inner.AfterFunc(s.scale(d), f) }

func (s *SkewedClock) scale(d time.Duration) time.Duration {
	return time.Duration(math.Ceil(float64(d) / s.rate))
}
