package snapshot

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/s3"
	"memorydb/internal/txlog"
)

// Trimmer is the snapshot-coordinated log-trim coordinator (paper §4.2.3:
// the log is bounded because everything below the latest snapshot is
// redundant). It watches one shard's snapshot store and trims its
// transaction log only up to positions that a *durable, verified* snapshot
// strictly covers — and the log itself only drops whole sealed segments at
// or below that position. The two gates compose into the trim-safety
// invariant: any replica or restore path that needs entry N either finds a
// snapshot at position >= N, or the log still holds N. A reader that still
// hits ErrTrimmed after re-bootstrapping from the latest snapshot has
// found a coordinator bug, which core surfaces as the loud
// ErrLogTrimmedGap — never a normal condition.
//
// Every new tip is put through the full §7.2.1 restore rehearsal (Verify)
// before it authorizes anything: a snapshot that exists but fails its
// checksums or its replay must not let the log suffix that could rebuild
// it be discarded. A tip that fails is quarantined and alarmed, so the
// next pass judges the version below it.
type Trimmer struct {
	Manager  *Manager
	Log      *txlog.Log
	ShardID  string
	Interval time.Duration
	Clock    clock.Clock

	// lastPos memoizes the snapshot position the log was last trimmed
	// against, so an unchanged snapshot store costs one List, not a full
	// verification pass.
	lastPos atomic.Uint64
	// counters for tests/metrics
	trimmed atomic.Int64 // segments dropped
	passes  atomic.Int64 // verification passes actually run
}

// Stats returns (segments trimmed, verification passes run).
func (t *Trimmer) Stats() (trimmed, passes int64) {
	return t.trimmed.Load(), t.passes.Load()
}

// Tick performs one trim pass. Run calls this on an interval; tests may
// call it directly after forcing a snapshot.
func (t *Trimmer) Tick() {
	// Cheap freshness probe first: if the newest snapshot position hasn't
	// moved past what we already trimmed against, skip the expensive
	// verified-read entirely.
	pos, ok, err := t.Manager.LatestPos(t.ShardID)
	if err != nil || !ok || pos.Seq <= t.lastPos.Load() {
		return
	}
	// The verified gate. Only the chain's *base* (its full snapshot) may
	// authorize a trim: restoring past a damaged tip delta falls back to
	// an older prefix of the chain and needs log replay from that lower
	// position, so trimming to the tip would strand every delta above the
	// base. The horizon advances to the tip only when the builder compacts
	// (the new full becomes its own base).
	chain, err := Verify(t.Manager, t.ShardID, t.Log, t.Clock)
	t.passes.Add(1)
	if err != nil {
		if errors.Is(err, s3.ErrUnavailable) || errors.Is(err, txlog.ErrUnavailable) {
			return // storage blip, not a verdict: judge it next pass
		}
		// The freshest version failed its restore rehearsal. When the
		// evidence is against the snapshot itself, quarantine it
		// (idempotent delete) so no restore can pick it up and the next
		// pass judges the version below; a log that cannot be replayed
		// past it is not the snapshot's fault. Either way page — a shard
		// that cannot verify snapshots is one trim away from unrecoverable.
		if errors.Is(err, errChainDamaged) {
			_ = t.Manager.Remove(t.ShardID, chain.Tip.LogPos)
		}
		t.Manager.alarm(fmt.Sprintf("snapshot verification failed for shard %s at seq %d: %v",
			t.ShardID, chain.Tip.LogPos.Seq, err))
		return
	}
	t.trimmed.Add(int64(t.Log.Trim(chain.Base.LogPos)))
	t.lastPos.Store(chain.Tip.LogPos.Seq)
}

// Run ticks until ctx is cancelled.
func (t *Trimmer) Run(ctx context.Context) {
	clk := t.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	every(ctx, clk, cmp.Or(t.Interval, 5*time.Second), t.Tick)
}
