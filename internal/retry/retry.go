// Package retry draws the backoff a node waits between attempts against
// the transaction log: capped exponential backoff with full jitter. The
// paper's availability story (§4.1) depends on a node absorbing brief
// service blips — a single-AZ outage, a slow quorum — instead of
// escalating them into leader churn. The loop that retries is the
// caller's own (an append's, a role timer's); this package only paces it.
// S3 has no backoff here: a snapshot builder's next pass retries its
// failed request.
package retry

import (
	"math/rand"
	"sync"
	"time"

	"memorydb/internal/clock"
)

// Policy parameterizes a backoff sequence.
type Policy struct {
	// Base is the cap of the first retry's sleep. Defaults to 1ms.
	Base time.Duration
	// Max caps every individual sleep (the exponential growth plateau).
	// Defaults to 50ms.
	Max time.Duration
	// Clock drives the sleeps. Defaults to the wall clock.
	Clock clock.Clock
	// Seed makes the jitter deterministic for fixed-seed chaos tests.
	// The zero seed is valid (and deterministic too).
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 50 * time.Millisecond
	}
	if p.Clock == nil {
		p.Clock = clock.NewReal()
	}
	return p
}

// minSleep is the floor under full jitter so a retry loop always yields
// the CPU instead of busy-spinning on a zero draw.
const minSleep = 100 * time.Microsecond

// Backoff is one in-progress retry sequence. Not safe for concurrent use:
// each retrying operation owns its own Backoff.
type Backoff struct {
	pol     Policy
	rng     *rand.Rand
	attempt int
	slept   time.Duration
}

// New starts a backoff sequence under the policy.
func (p Policy) New() *Backoff {
	p = p.withDefaults()
	return &Backoff{pol: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Next returns the sleep before the next attempt: full jitter over an
// exponentially growing cap, i.e. uniform in (0, min(Max, Base<<attempt)].
func (b *Backoff) Next() time.Duration {
	ceil := b.pol.Base << b.attempt
	if ceil > b.pol.Max || ceil <= 0 { // shift overflow guard
		ceil = b.pol.Max
	}
	b.attempt++
	d := time.Duration(b.rng.Int63n(int64(ceil)))
	if d < minSleep {
		d = minSleep
	}
	b.slept += d
	return d
}

// Sleep blocks for Next() on the policy's clock.
func (b *Backoff) Sleep() { b.pol.Clock.Sleep(b.Next()) }

// Slept returns the cumulative sleep time drawn so far — the caller's
// measure of time spent in degraded state.
func (b *Backoff) Slept() time.Duration { return b.slept }

// seedCounter salts DefaultSeed so concurrently created policies do not
// share jitter phase.
var (
	seedMu      sync.Mutex
	seedCounter int64
)

// SaltSeed derives a distinct deterministic seed from base: repeated calls
// with the same base yield different (but reproducible in order) seeds, so
// a fleet of nodes built from one configured seed does not retry in
// lockstep.
func SaltSeed(base int64) int64 {
	seedMu.Lock()
	defer seedMu.Unlock()
	seedCounter++
	return base*1000003 + seedCounter
}
