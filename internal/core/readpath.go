package core

import (
	"context"
	"strings"
	"time"

	"memorydb/internal/election"
	"memorydb/internal/engine"
	"memorydb/internal/obs"
	"memorydb/internal/resp"
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
//  2. Park: wait in the ReadGate until the replica's applied position
//     covers the capture, bounded by Config.ReplicaReadTimeout.
//  3. Execute: run on the local engine. Applied positions only advance
//     (installState swaps state atomically, as one workloop task),
//     so the state at execution still covers the capture.
//
// On any freshness-proof failure — capture unavailable, park deadline,
// gate aborted — the read degrades down an explicit ladder:
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
type ReadOutcome int

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

// DoReadOnly executes a command with replica reads permitted (the client
// issued READONLY) at the default, linearizable consistency.
func (n *Node) DoReadOnly(ctx context.Context, argv [][]byte) (resp.Value, error) {
	v, _, err := n.DoRead(ctx, argv, ReadOpts{})
	return v, err
}

// DoRead executes a read-eligible command under an explicit consistency
// level and reports which ladder rung served it. Non-read commands
// (writes, unknown, always-local, INFO/WAIT) fall through to the
// default execution path — on a replica the workloop rejects writes.
func (n *Node) DoRead(ctx context.Context, argv [][]byte, opts ReadOpts) (resp.Value, ReadOutcome, error) {
	t := &task{kind: taskCmd, argv: argv, readonly: true}
	t.resolve()
	eligible := t.cmd != nil && !t.cmd.Writes() && t.cmd.Flags&engine.FlagLocal == 0
	return n.readLadder(ctx, t, eligible, opts)
}

// DoBatchRead executes an atomic batch with replica reads permitted
// (READONLY pipeline). All-read batches take the same freshness ladder
// as single reads; batches containing writes fall through to the
// default path (primary-only).
func (n *Node) DoBatchRead(ctx context.Context, cmds [][][]byte, opts ReadOpts) (resp.Value, ReadOutcome, error) {
	t := &task{kind: taskBatch, batch: cmds, readonly: true}
	t.resolve()
	return n.readLadder(ctx, t, batchIsReadOnly(t.cmds), opts)
}

// readLadder submits a readonly task, first clearing an eligible read for
// replica serving (task.readVerified) at the rung the client asked for.
func (n *Node) readLadder(ctx context.Context, t *task, eligible bool, opts ReadOpts) (resp.Value, ReadOutcome, error) {
	// Off a live replica the default path is right: the primary is already
	// linearizable (key-hazard gating), demoted nodes fail in the workloop,
	// and a frozen node behaves like a dead process — enqueue and let the
	// caller time out rather than emit a REDIRECT no crashed process could
	// send.
	outcome := ReadOutcomePrimary
	switch {
	case !eligible:
	case opts.Consistency == ReadEventual:
		t.readVerified, outcome = true, ReadOutcomeEventual
	case n.Role() == election.RoleReplica && !n.Frozen():
		var err error
		if outcome, err = n.verifyReplicaRead(ctx, opts); err != nil {
			return resp.Value{}, outcome, err
		}
		switch outcome {
		case ReadOutcomeLinearizable:
			n.stats.ReplicaReadsServed.Add(1)
		case ReadOutcomeStale:
			n.stats.ReplicaReadsStale.Add(1)
		case ReadOutcomeRedirected:
			n.stats.ReplicaReadsRedirected.Add(1)
			return errRedirect, outcome, nil
		}
		t.readVerified = true
	}
	v, err := n.submit(ctx, t)
	return v, outcome, err
}

// verifyReplicaRead runs the capture-and-park freshness proof and maps
// its result onto the ladder. It returns one of ReadOutcomeLinearizable
// (proof succeeded), ReadOutcomeStale (proof failed but the client's
// bound holds) or ReadOutcomeRedirected; a non-nil error means the
// caller's context or the node ended first.
func (n *Node) verifyReplicaRead(ctx context.Context, opts ReadOpts) (ReadOutcome, error) {
	// Capture AFTER arrival. A node partitioned from the log service
	// must not capture: its view of the committed tail may be
	// arbitrarily old (this is exactly the asymmetric-partition case —
	// reachable by clients, cut off from the feed).
	var capture txlog.EntryID
	captureErr := txlog.ErrUnavailable
	if !n.partitioned() {
		capture, captureErr = n.cfg.Log.ConsistentTail()
	}
	if captureErr == nil {
		if n.readGate.Applied() >= capture.Seq {
			return ReadOutcomeLinearizable, nil
		}
		var waitStart int64
		if n.obs != nil {
			waitStart = obs.Now()
		}
		// Buffered so a late gate delivery after timeout never blocks
		// the delivering goroutine; the abandoned registration is
		// swept by the gate's next Advance.
		done := make(chan bool, 1)
		n.readGate.Park(capture.Seq, func(aborted bool) {
			select {
			case done <- aborted:
			default:
			}
		})
		var verified, finished bool
		select {
		case aborted := <-done:
			verified, finished = !aborted, true
		case <-n.clk.After(n.cfg.ReplicaReadTimeout):
		case <-ctx.Done():
			return ReadOutcomeRedirected, ctx.Err()
		case <-n.stopCtx.Done():
			return ReadOutcomeRedirected, ErrStopped
		}
		if n.obs != nil {
			n.obs.Stage(obs.StageReplicaReadWait).ObserveNanos(obs.Now() - waitStart)
		}
		if finished && verified {
			return ReadOutcomeLinearizable, nil
		}
	}
	// Freshness proof failed (no capture, park deadline, or gate
	// aborted): degrade. Bounded-stale serving leans on the
	// replica-LOCAL caught-up proof (ReadGate.NoteFresh from the
	// tailer's drain loop), never the primary's clock — so a skewed or
	// deposed primary cannot extend the bound.
	if opts.Consistency == ReadBoundedStale && opts.StalenessBound > 0 &&
		n.readGate.Staleness(n.clk.Now()) <= opts.StalenessBound {
		return ReadOutcomeStale, nil
	}
	return ReadOutcomeRedirected, nil
}
