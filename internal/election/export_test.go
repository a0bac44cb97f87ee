package election

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/txlog"
)

// Decoders, checks and helpers only the tests use: the node encodes
// claims and renewals, and its own renew path appends them.

// DecodeClaim parses a leadership claim payload.
func DecodeClaim(b []byte) (Claim, error) {
	var c Claim
	if err := json.Unmarshal(b, &c); err != nil {
		return Claim{}, fmt.Errorf("election: bad claim payload: %w", err)
	}
	return c, nil
}

// DecodeRenewal parses a lease renewal payload.
func DecodeRenewal(b []byte) (Renewal, error) {
	var r Renewal
	if err := json.Unmarshal(b, &r); err != nil {
		return Renewal{}, fmt.Errorf("election: bad renewal payload: %w", err)
	}
	return r, nil
}

// Validate checks the safety constraint between lease and backoff.
func (c Config) Validate() error {
	if c.Backoff <= c.Lease {
		return fmt.Errorf("election: backoff (%v) must be strictly greater than lease (%v)", c.Backoff, c.Lease)
	}
	if c.RenewEvery >= c.Lease {
		return fmt.Errorf("election: renew interval (%v) must be below lease (%v)", c.RenewEvery, c.Lease)
	}
	return nil
}

// Renew appends a lease renewal entry conditioned on after (the primary's
// last appended entry). On success it extends lease and returns the new
// tail. Any error means the primary could not renew — on lease expiry it
// must self-demote.
func Renew(ctx context.Context, log *txlog.Log, cfg Config, lease *Lease, after txlog.EntryID) (txlog.EntryID, error) {
	r := Renewal{NodeID: cfg.NodeID, Epoch: lease.Epoch(), LeaseMs: cfg.Lease.Milliseconds()}
	issued := cfg.Clock.Now()
	id, err := log.Append(ctx, after, txlog.Entry{
		Type:    txlog.EntryLease,
		Epoch:   lease.Epoch(),
		Payload: EncodeRenewal(r),
	})
	if err != nil {
		return txlog.ZeroID, err
	}
	lease.Renewed(issued)
	return id, nil
}

// NewSeededSkew draws a reproducible skew from seed: offset uniform in
// [-maxOffset, +maxOffset], rate uniform in [1-maxDrift, 1+maxDrift].
// Fixed-seed chaos schedules get the same broken clock every run.
func NewSeededSkew(inner clock.Clock, seed int64, maxOffset time.Duration, maxDrift float64) *SkewedClock {
	rng := rand.New(rand.NewSource(seed))
	offset := time.Duration((rng.Float64()*2 - 1) * float64(maxOffset))
	rate := 1 + (rng.Float64()*2-1)*maxDrift
	return NewSkewedClock(inner, offset, rate)
}

// Offset returns the configured constant offset.
func (s *SkewedClock) Offset() time.Duration { return s.offset }

// Rate returns the configured drift rate.
func (s *SkewedClock) Rate() float64 { return s.rate }
