// Package netsim provides the latency models that simulate the network
// between MemoryDB components: the multi-AZ quorum commit of the
// transaction log and client links. Failures — partitions, outages,
// flaky or slow zones — are injected at internal/faultpoint sites, not
// here.
package netsim

import (
	"math/rand"
	"sync"
	"time"
)

// LatencyModel produces per-operation latencies.
type LatencyModel interface {
	// Sample returns one latency draw.
	Sample() time.Duration
}

// Zero is a LatencyModel that always returns 0 (for unit tests).
type Zero struct{}

// Sample implements LatencyModel.
func (Zero) Sample() time.Duration { return 0 }

// Fixed always returns the same latency.
type Fixed time.Duration

// Sample implements LatencyModel.
func (f Fixed) Sample() time.Duration { return time.Duration(f) }

// Uniform draws uniformly from [Min, Max]. Safe for concurrent use.
type Uniform struct {
	Min, Max time.Duration
	mu       sync.Mutex
	rng      *rand.Rand
}

// NewUniform returns a Uniform model with a deterministic seed.
func NewUniform(min, max time.Duration, seed int64) *Uniform {
	return &Uniform{Min: min, Max: max, rng: rand.New(rand.NewSource(seed))}
}

// Sample implements LatencyModel.
func (u *Uniform) Sample() time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	u.mu.Lock()
	d := u.Min + time.Duration(u.rng.Int63n(int64(u.Max-u.Min)))
	u.mu.Unlock()
	return d
}

// LogNormalish approximates a long-tailed latency distribution: a base
// latency plus an exponential tail, which matches observed AZ-to-AZ RTTs
// far better than a uniform draw. Safe for concurrent use.
type LogNormalish struct {
	Base time.Duration // minimum latency
	Mean time.Duration // mean of the additional exponential component
	mu   sync.Mutex
	rng  *rand.Rand
}

// NewLogNormalish returns the model with a deterministic seed.
func NewLogNormalish(base, mean time.Duration, seed int64) *LogNormalish {
	return &LogNormalish{Base: base, Mean: mean, rng: rand.New(rand.NewSource(seed))}
}

// Sample implements LatencyModel.
func (l *LogNormalish) Sample() time.Duration {
	l.mu.Lock()
	x := l.rng.ExpFloat64()
	l.mu.Unlock()
	return l.Base + time.Duration(float64(l.Mean)*x)
}

// DefaultCommitLatency is the multi-AZ quorum commit model of the paper's
// evaluation: ~2.2 ms base with an exponential tail, yielding ~3 ms
// median and mid-single-digit-millisecond p99 write latencies under
// load, matching §6.1.2.2.
func DefaultCommitLatency() LatencyModel {
	return NewLogNormalish(2200*time.Microsecond, 500*time.Microsecond, 7)
}
