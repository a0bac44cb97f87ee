package core

import (
	"context"
	"strings"
	"time"

	"memorydb/internal/resp"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// Consistent replica reads (the paper's §5 contract, Hermes-style local
// reads). A replica may serve a read linearizably once it PROVES its
// state covers everything acknowledged before the read arrived:
//
//  1. Capture: after the read arrives, fetch the committed tail from
//     the transaction log service (txlog.Log.ConsistentTail). The log —
//     not the primary's clock, not the piggybacked watermark — is the
//     authority: every acknowledged write has a sequence <= that tail,
//     and a partitioned replica cannot obtain a capture at all.
//  2. Park: wait on the workloop's list of parked reads until the
//     replica's applied position covers the capture, bounded by
//     Config.ReplicaReadTimeout.
//  3. Execute: run on the local engine. Applied positions only advance
//     (installState swaps state atomically, in one workloop step),
//     so the state at execution still covers the capture.
//
// The whole ladder runs on the replica's workloop: the read is submitted
// once, captured when it is dequeued, and parked, released and degraded
// there. On any freshness-proof failure — capture unavailable, park
// deadline — the read degrades down an explicit ladder:
// linearizable → bounded-stale (only if the client declared a bound it
// can tolerate, checked against the replica-local caught-up proof) →
// REDIRECT to the primary. A replica read is never silently served
// stale under a consistency level it did not meet.

// ReadConsistency selects a rung of the replica read ladder.
type ReadConsistency int

const (
	// ReadLinearizable (default): serve only with a freshness proof;
	// degrade straight to REDIRECT.
	ReadLinearizable ReadConsistency = iota
	// ReadBoundedStale: try the linearizable path first; if the proof
	// fails or times out, serve locally as long as the replica proved
	// itself caught up within ReadOpts.StalenessBound; else REDIRECT.
	ReadBoundedStale
	// ReadEventual: legacy replica read — serve immediately from local
	// state with no freshness claim.
	ReadEventual
)

// ReadOpts carries the client's declared consistency for one read.
type ReadOpts struct {
	Consistency ReadConsistency
	// StalenessBound is the maximum replica-local staleness a
	// ReadBoundedStale read tolerates. Zero means no tolerance (the
	// read degrades to REDIRECT like a linearizable one).
	StalenessBound time.Duration
}

// ReadOutcome reports which rung of the ladder actually served a read.
type ReadOutcome uint8

const (
	// ReadOutcomePrimary: the read did not take the replica-gated path
	// (primary/default execution, write command, or always-local).
	ReadOutcomePrimary ReadOutcome = iota
	// ReadOutcomeLinearizable: served on a replica after the freshness
	// proof succeeded.
	ReadOutcomeLinearizable
	// ReadOutcomeStale: served on a replica under the client's declared
	// staleness bound after the linearizable proof failed.
	ReadOutcomeStale
	// ReadOutcomeRedirected: degraded to a REDIRECT error; the client
	// should retry on the primary.
	ReadOutcomeRedirected
	// ReadOutcomeEventual: served with no freshness claim (client opted
	// into eventual consistency).
	ReadOutcomeEventual
)

// errRedirect is the bottom rung of the degradation ladder: the replica
// could not prove freshness (and no staleness bound admits the read),
// so the client must retry on the primary. The "REDIRECT" prefix is a
// routing hint the cluster client recognizes, like "MOVED".
var errRedirect = resp.Err("REDIRECT replica cannot prove freshness; retry on primary")

// IsRedirect reports whether a reply value is the replica-read REDIRECT
// signal (clients retry these on the primary).
func IsRedirect(v resp.Value) bool {
	return v.IsError() && strings.HasPrefix(string(v.Str), "REDIRECT")
}

// DoRead executes a read-eligible command under an explicit consistency
// level and reports which ladder rung served it. Non-read commands
// (writes, unknown, always-local, INFO/WAIT) take the default execution
// path — on a replica the workloop rejects writes.
func (n *Node) DoRead(ctx context.Context, argv [][]byte, opts ReadOpts) (resp.Value, ReadOutcome, error) {
	return n.Submit(ctx, Request{Argv: argv, ReadOnly: true, Opts: opts}).Wait(ctx)
}

// DoBatchRead executes an atomic batch with replica reads permitted
// (READONLY pipeline). All-read batches take the same freshness ladder
// as single reads; a batch with a write in it is REDIRECTed off a replica.
func (n *Node) DoBatchRead(ctx context.Context, cmds [][][]byte, opts ReadOpts) (resp.Value, ReadOutcome, error) {
	return n.Submit(ctx, Request{Batch: cmds, ReadOnly: true, Opts: opts}).Wait(ctx)
}

// readLadder runs a readonly read's rung of the ladder on a replica's
// workloop and reports whether the read executes now. A read already
// cleared — released from the list of parked reads, or degraded to stale —
// executes, and so does an eventual one. A linearizable or bounded-stale
// read captures the committed tail: it executes if the applied position
// covers the capture, parks if not, and degrades if there is none.
func (n *Node) readLadder(t *task) bool {
	switch {
	case t.outcome != ReadOutcomePrimary:
		return true
	case t.opts.Consistency == ReadEventual:
		t.outcome = ReadOutcomeEventual
		return true
	}
	// Capture AFTER arrival. A node partitioned from the log service must
	// not capture: its view of the committed tail may be arbitrarily old
	// (the asymmetric partition — reachable by clients, cut off from the
	// feed).
	capture, err := txlog.ZeroID, error(txlog.ErrUnavailable)
	if !n.partitioned() {
		capture, err = n.cfg.Log.ConsistentTail()
	}
	switch {
	case err != nil:
		return n.degrade(t)
	case n.applied.Seq >= capture.Seq:
		t.outcome = ReadOutcomeLinearizable
		n.stats.ReplicaReadsServed.Add(1)
		return true
	}
	// Every deadline is stamped here, at dequeue, so the list is in
	// deadline order and one timer, for the earliest, serves every read on
	// it (parked.go).
	n.parked = append(n.parked, parkedRead{t: t, seq: capture.Seq, deadline: n.clk.Now().Add(n.cfg.ReplicaReadTimeout)})
	return false
}

// degrade walks a read whose freshness proof failed — no capture, or its
// park deadline passed — down the ladder and reports whether it executes:
// bounded-stale if the client declared a bound the replica-LOCAL caught-up
// proof meets (never the primary's clock, so a skewed or deposed primary
// cannot extend it), else REDIRECT.
func (n *Node) degrade(t *task) bool {
	if b := t.opts.StalenessBound; t.opts.Consistency == ReadBoundedStale && b > 0 && n.staleness(n.clk.Now()) <= b {
		t.outcome = ReadOutcomeStale
		n.stats.ReplicaReadsStale.Add(1)
		return true
	}
	n.redirect(t)
	return false
}

// redirect answers a replica read with REDIRECT: the client retries it on
// the primary.
func (n *Node) redirect(t *task) {
	t.outcome = ReadOutcomeRedirected
	n.stats.ReplicaReadsRedirected.Add(1)
	n.reply(t, errRedirect)
}

// noteFresh records a replica-local instant at which the tailer had
// provably drained the log (TryNext returned "nothing more" with no
// availability error). Under a partition or log outage the drain never
// reaches that point, so freshAt freezes and staleness grows without
// bound — exactly the signal the degradation ladder needs.
func (n *Node) noteFresh(now time.Time) {
	if now.After(n.freshAt) {
		n.freshAt = now
	}
}

// staleness returns the replica-local duration since the last caught-up
// proof. Before any proof it is effectively unbounded.
func (n *Node) staleness(now time.Time) time.Duration {
	if n.freshAt.IsZero() {
		return time.Duration(1<<62 - 1)
	}
	return now.Sub(n.freshAt)
}

// fenceEpoch folds a tailed entry's epoch into the newest the feed has
// shown. Entries arrive in log order, so an in-log epoch regression is
// impossible (conditional appends fence stale writers); the check is
// defense-in-depth against a replayed feed, and an entry from an older
// epoch — a deposed primary's — is counted and recorded.
func (n *Node) fenceEpoch(e txlog.Entry) {
	if e.Epoch < n.feedEpoch {
		n.stats.WatermarksFenced.Add(1)
		n.flight.Recordf(trace.EvWatermarkFence, e.ID.Seq, "stale watermark from epoch %d rejected", e.Epoch)
		return
	}
	n.feedEpoch = e.Epoch
}
