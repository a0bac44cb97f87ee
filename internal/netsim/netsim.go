// Package netsim provides latency models and fault flags that simulate the
// network between MemoryDB components: the multi-AZ quorum commit of the
// transaction log, cluster-bus gossip, and client links. Partitions and
// latency spikes are injected here so the rest of the system exercises the
// same code paths it would against a real network.
package netsim

import (
	"math/rand"
	"sync"
	"sync/atomic"
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

// Flag is an atomically switchable fault condition (e.g. a partition).
// The zero value is "healthy".
type Flag struct {
	v atomic.Bool
}

// Set raises or clears the fault.
func (f *Flag) Set(on bool) { f.v.Store(on) }

// On reports whether the fault is active.
func (f *Flag) On() bool { return f.v.Load() }

// Prob is a seeded Bernoulli fault gate: each Hit independently fires
// with the configured probability. Used for flaky-link and flaky-AZ
// injection where faults must be probabilistic but reproducible under a
// fixed seed. The zero value never fires. Safe for concurrent use.
type Prob struct {
	mu  sync.Mutex
	p   float64
	rng *rand.Rand
}

// NewProb returns a gate with probability p and a deterministic seed.
func NewProb(p float64, seed int64) *Prob {
	return &Prob{p: p, rng: rand.New(rand.NewSource(seed))}
}

// SetP updates the fault probability (0 disables).
func (f *Prob) SetP(p float64) {
	f.mu.Lock()
	f.p = p
	f.mu.Unlock()
}

// Hit draws once: true means the fault fires.
func (f *Prob) Hit() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.p <= 0 || f.rng == nil {
		return false
	}
	return f.rng.Float64() < f.p
}

// Link models one directional network link: a latency distribution plus a
// partition flag. A partitioned link drops traffic (callers surface an
// error or timeout).
type Link struct {
	Latency     LatencyModel
	Partitioned Flag
}

// NewLink returns a healthy link with the given latency model.
func NewLink(m LatencyModel) *Link {
	if m == nil {
		m = Zero{}
	}
	return &Link{Latency: m}
}
