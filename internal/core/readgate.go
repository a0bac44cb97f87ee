package core

import (
	"sync"
	"time"

	"memorydb/internal/tracker"
)

// ReadGate is the replica-side half of the consistent read protocol.
//
// A linearizable replica read runs in three steps: (1) capture the log
// service's committed tail (txlog.Log.ConsistentTail) AFTER the read
// arrived, (2) park here until the replica's applied position covers
// the capture, (3) execute against the local engine. The gate itself is
// a thin wrapper over the tracker's sequence-gating machinery: Park is
// RegisterWrite against the captured seq, Advance is Commit at the
// applied position (called by the tailer and by installState
// after snapshot resync/promotion, which release every parked read at
// once — a freshly promoted primary's claim position covers all prior
// commits).
//
// Beyond cover-gating, the gate keeps two pieces of freshness state the
// degradation ladder needs:
//
//   - freshAt: the replica-local instant the tailer last proved it was
//     fully caught up (drained the log to "no more entries" without an
//     availability error). Bounded-staleness reads serve iff
//     now-freshAt <= bound. The proof is replica-local — it never
//     trusts the primary's (possibly skewed) clock.
//   - watermark/epoch: the newest piggybacked primary watermark, fenced
//     by epoch. Entries reach the gate in log order, so an in-log epoch
//     can never regress (conditional append fences stale writers); the
//     epoch check is defense-in-depth against a replayed or buggy
//     feed, and WatermarksFenced counts any entry it rejects.
type ReadGate struct {
	trk *tracker.Tracker

	mu        sync.Mutex
	freshAt   time.Time
	watermark uint64
	epoch     uint64
	fenced    int64
}

// NewReadGate returns a gate whose applied position starts at seq.
func NewReadGate(seq uint64) *ReadGate {
	return &ReadGate{trk: tracker.New(seq)}
}

// Park registers deliver to fire once the applied position reaches seq
// (fires immediately if it already has). deliver's aborted argument is
// true when the gate is stopped before seq is covered; parked reads
// must then degrade, not execute. deliver may fire on another
// goroutine; it must not block (send to a buffered channel).
func (g *ReadGate) Park(seq uint64, deliver func(aborted bool)) {
	g.trk.RegisterWrite(seq, nil, deliver)
}

// Advance moves the applied position to seq, releasing every read
// parked at or below it. Called by the tailer per applied entry and by
// installState after a snapshot swap or promotion.
func (g *ReadGate) Advance(seq uint64) {
	g.trk.Commit(seq)
}

// Applied returns the gate's current applied position.
func (g *ReadGate) Applied() uint64 { return g.trk.Committed() }

// Stop aborts every parked read and makes future Parks abort
// immediately. Used on node shutdown so no read, nor WaitApplied, ever
// waits on a feed that will not advance.
func (g *ReadGate) Stop() { g.trk.Abort() }

// NoteFresh records a replica-local instant at which the tailer had
// provably drained the log (TryNext returned "nothing more" with no
// availability error). Under a partition or log outage the drain loop
// never reaches that point, so freshAt freezes and staleness grows
// without bound — exactly the signal the degradation ladder needs.
func (g *ReadGate) NoteFresh(now time.Time) {
	g.mu.Lock()
	if now.After(g.freshAt) {
		g.freshAt = now
	}
	g.mu.Unlock()
}

// Staleness returns the replica-local duration since the last
// caught-up proof. Before any proof it is effectively unbounded.
func (g *ReadGate) Staleness(now time.Time) time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.freshAt.IsZero() {
		return time.Duration(1<<62 - 1)
	}
	return now.Sub(g.freshAt)
}

// NoteWatermark folds in a piggybacked (epoch, watermark) pair from a
// tailed entry. Pairs from an epoch older than the newest seen are
// fenced (dropped and counted): they came from a deposed primary and
// must not influence staleness accounting. Returns whether the pair
// was accepted.
func (g *ReadGate) NoteWatermark(epoch, wm uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if epoch < g.epoch {
		g.fenced++
		return false
	}
	g.epoch = epoch
	if wm > g.watermark {
		g.watermark = wm
	}
	return true
}

// Watermark returns the newest accepted primary watermark and its epoch.
func (g *ReadGate) Watermark() (epoch, wm uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch, g.watermark
}
