// Package election implements MemoryDB's leader election atop the
// transaction log (paper §4.1). Leadership is acquired by appending a
// leadership entry with the conditional-append API: only a replica that
// has observed the latest committed entry can name the current tail, so
// only fully caught-up replicas can win (consistent failover). Leases
// appended to the log keep exactly one primary active at a time (leader
// singularity): replicas back off for strictly longer than the lease
// duration after observing a renewal, and a primary that cannot renew
// self-demotes at lease expiry.
package election

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/txlog"
)

// Role is a node's current role within its shard.
type Role int32

// Roles.
const (
	RoleReplica Role = iota
	RolePrimary
	RoleDemoted
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	case RoleDemoted:
		return "demoted"
	}
	return "unknown"
}

// Claim is the payload of an EntryLeadership record.
type Claim struct {
	NodeID string `json:"node"`
	Epoch  uint64 `json:"epoch"`
	// LeaseMs is the lease duration granted by this claim.
	LeaseMs int64 `json:"lease_ms"`
}

// Renewal is the payload of an EntryLease record (heartbeat + extension).
type Renewal struct {
	NodeID  string `json:"node"`
	Epoch   uint64 `json:"epoch"`
	LeaseMs int64  `json:"lease_ms"`
}

// EncodeClaim serializes a leadership claim.
func EncodeClaim(c Claim) []byte {
	b, _ := json.Marshal(c)
	return b
}

// EncodeRenewal serializes a lease renewal.
func EncodeRenewal(r Renewal) []byte {
	b, _ := json.Marshal(r)
	return b
}

// Config holds the lease timing parameters. Backoff must be strictly
// greater than Lease: a replica refrains from campaigning for Backoff
// after each observed renewal, while the primary self-demotes once its
// lease (Lease after the last successful renewal) expires — so the old
// primary is always silent before a new one can be elected.
type Config struct {
	NodeID  string
	Lease   time.Duration
	Backoff time.Duration
	// RenewEvery is how often the primary appends renewals; must be
	// comfortably below Lease.
	RenewEvery time.Duration
	Clock      clock.Clock
}

// Observer is the replica-side lease state machine: it watches lease and
// leadership entries streaming from the log and answers "when may I
// campaign?" — a deadline the tailer can wait on, not a flag it must poll.
type Observer struct {
	cfg        Config
	campaignAt time.Time
}

// NewObserver returns an observer that, having seen nothing, starts its
// backoff window at construction time (a fresh replica must not instantly
// campaign against a healthy primary it hasn't heard from yet).
func NewObserver(cfg Config) *Observer {
	return &Observer{cfg: cfg, campaignAt: cfg.Clock.Now().Add(cfg.Backoff)}
}

// ObserveRenewal records a lease renewal or leadership claim seen in the
// log at the observer's local clock: no campaign for a full Backoff.
func (o *Observer) ObserveRenewal() {
	o.campaignAt = o.cfg.Clock.Now().Add(o.cfg.Backoff)
}

// Release ends the backoff window now: there is no lease to respect (a
// pristine shard that never had a leader, or a collaborative hand-over in
// which the primary released its lease).
func (o *Observer) Release() {
	o.campaignAt = o.cfg.Clock.Now()
}

// CampaignAt returns the instant, on the observer's clock, at which the
// backoff window since the last observed renewal has fully elapsed: from
// then on the observer may campaign.
func (o *Observer) CampaignAt() time.Time { return o.campaignAt }

// Lease is the primary-side state: the wall-clock deadline until which
// this node may serve reads and writes. Safe for concurrent use; a node
// renews and validates it on its workloop alone.
type Lease struct {
	cfg   Config
	epoch uint64

	mu        sync.Mutex
	expiresAt time.Time
}

// NewLease returns the lease state granted by winning epoch at now.
func NewLease(cfg Config, epoch uint64) *Lease {
	return &Lease{cfg: cfg, epoch: epoch, expiresAt: cfg.Clock.Now().Add(cfg.Lease)}
}

// Epoch returns the leadership epoch this lease belongs to.
func (l *Lease) Epoch() uint64 { return l.epoch }

// Renewed extends the lease after a successful renewal append. The
// extension is measured from the time the renewal was *issued*, not
// acknowledged, so clock skew on commit latency cannot overextend it;
// issuedAt is when the primary created the renewal entry.
func (l *Lease) Renewed(issuedAt time.Time) {
	exp := issuedAt.Add(l.cfg.Lease)
	l.mu.Lock()
	if exp.After(l.expiresAt) {
		l.expiresAt = exp
	}
	l.mu.Unlock()
}

// Valid reports whether the lease still holds.
func (l *Lease) Valid() bool {
	return l.cfg.Clock.Now().Before(l.ExpiresAt())
}

// ExpiresAt returns the current lease deadline.
func (l *Lease) ExpiresAt() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.expiresAt
}

// Campaign attempts to win leadership for cfg.NodeID by appending a
// leadership claim conditioned on observedTail. It returns the new lease
// on success. txlog.ErrConditionFailed means another node appended first
// (or we were not truly caught up) — the caller resumes tailing.
func Campaign(ctx context.Context, log *txlog.Log, cfg Config, observedTail txlog.EntryID) (*Lease, txlog.EntryID, error) {
	epoch := log.CurrentEpoch() + 1
	claim := Claim{NodeID: cfg.NodeID, Epoch: epoch, LeaseMs: cfg.Lease.Milliseconds()}
	issued := cfg.Clock.Now()
	id, err := log.Append(ctx, observedTail, txlog.Entry{
		Type:    txlog.EntryLeadership,
		Epoch:   epoch,
		Payload: EncodeClaim(claim),
	})
	if err != nil {
		return nil, txlog.ZeroID, err
	}
	lease := NewLease(cfg, epoch)
	lease.Renewed(issued)
	return lease, id, nil
}
