package core

import (
	"errors"

	"memorydb/internal/engine"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// Barrier path. Commands whose keys span execution shards — or whose
// result reflects the whole keyspace (KEYS, FLUSHALL, WAIT, …) — cannot
// run inside any single shard workloop. They run on the barrier shard
// instead: a nodeShard like the others (own engine view, own group-commit
// buffer) whose engine spans the whole keyspace and which has no workloop.
// A coordinator goroutine quiesces the execution shards — each receives a
// park task, flushes its group-commit buffer (so all of its writes have
// log sequences), signals arrival, and blocks until release — and with
// every shard parked runs the ordinary client handler on the barrier
// shard over a consistent cut of the keyspace. Coordinators serialize on
// barrierMu; the same quiesce drives replica apply, control entries, and
// state installs (promotion, resync).

// holdShards parks every given shard: each flushes its buffer, signals
// arrival, and blocks until the returned release function is called.
// Returns ok=false when the node stopped mid-quiesce (any shards already
// parked are released; the coordinator must unwind without side effects).
func (n *Node) holdShards(shards []*nodeShard) (release func(), ok bool) {
	arrived := make(chan struct{}, len(shards))
	rel := make(chan struct{})
	t := &task{kind: taskPark, shard: -1, parkArrived: arrived, parkRelease: rel}
	for _, sh := range shards {
		select {
		case sh.tasks <- t:
		case <-n.stopCtx.Done():
			close(rel)
			return nil, false
		}
	}
	for range shards {
		select {
		case <-arrived:
		case <-n.stopCtx.Done():
			close(rel)
			return nil, false
		}
	}
	return func() { close(rel) }, true
}

// runBarrier coordinates one client task across shards.
func (n *Node) runBarrier(t *task) {
	n.stats.BarrierOps.Add(1)
	n.barrierMu.Lock()
	defer n.barrierMu.Unlock()
	if !n.gate() {
		// Stopped while frozen: drop without replying, like handleTask.
		return
	}
	n.flight.Recordf(trace.EvBarrier, 0, "all-shard barrier for %s", t.name)
	release, ok := n.holdShards(n.shards)
	if !ok {
		return
	}
	defer release()
	// The handler snapshots the role AFTER the quiesce: parking may have
	// demoted the node (a shard's flush failed). Every shard flushed on
	// park, so the tracker's hazards and the sequencer tail cover
	// everything this command can observe.
	n.handleClient(n.barrier, t)
	// No workloop will ever drain this buffer on an append ack, so a
	// mutation left behind a full pipeline is flushed now, before the
	// shards resume.
	n.flushPending(n.barrier)
}

// installState atomically replaces the node's engine state and/or log
// positions from the role loop (promotion installs positions; resync
// installs a rebuilt engine). All shards are parked; any buffered,
// never-logged mutations are discarded with errors — their clients must
// see failures, not silence (the node demoted before the resync that
// produced this install). issued and checksum reposition the sequencer:
// the claim entry and the log's checksum there on promotion, zero on
// resync. Returns false when the node stopped.
func (n *Node) installState(newEng *engine.Engine, newApplied, issued txlog.EntryID, checksum uint64) bool {
	n.barrierMu.Lock()
	defer n.barrierMu.Unlock()
	release, ok := n.holdShards(n.shards)
	if !ok {
		return false
	}
	defer release()
	for _, sh := range n.shards {
		n.abortPending(sh, errDemoted)
	}
	if newEng != nil {
		db := newEng.DB()
		n.dbPtr.Store(db)
		n.barrier.eng = newEng
		for _, sh := range n.shards {
			sh.eng = n.newEngine(db)
		}
	}
	n.applied = newApplied
	n.appliedSeq.Store(newApplied.Seq)
	// The installed state covers everything through newApplied: release
	// every replica read parked at or below it. On promotion this is what
	// hands parked reads to the new primary's fully-caught-up state; on
	// resync the swap is atomic under the all-shard barrier, so a released
	// read can never observe a half-rebuilt store.
	n.readGate.Advance(newApplied.Seq)
	n.resetSequencer(issued, checksum)
	return true
}

// applyEntry consumes one replicated log entry through the node's
// replayer (role loop only), so the tailer enforces exactly what restore
// enforced on the prefix below it. A stall marks the node and leaves the
// applied position before the refused entry.
func (n *Node) applyEntry(e txlog.Entry) error {
	if err := n.replay.Step(e, n.applyData); err != nil {
		switch {
		case errors.Is(err, txlog.ErrUpgradeStall):
			n.mu.Lock()
			n.stalled = true
			n.mu.Unlock()
		case errors.Is(err, txlog.ErrChecksumMismatch):
			n.flight.Recordf(trace.EvAlarm, e.ID.Seq, "replica state diverged from the log: %v", err)
		}
		return err
	}
	n.applied = e.ID
	n.appliedSeq.Store(e.ID.Seq)
	n.readGate.Advance(e.ID.Seq)
	return nil
}

// applyData applies one data entry's payload to the keyspace: the
// replayer's callback on the tailer.
func (n *Node) applyData(e txlog.Entry) error {
	// A traced entry extends the originating command's span tree onto this
	// node: the apply interval parents to the primary's append span.
	var applyStart int64
	traced := n.trace != nil && e.TraceID != 0
	if traced {
		applyStart = trace.Now()
	}
	// Record boundaries inside an entry payload are not framed, so an
	// entry cannot be split across shards; apply it atomically on the
	// barrier shard's whole-keyspace engine with every shard parked.
	// Replica workloops only serve reads, so the quiesce never waits on a
	// flush — and primaries never apply, keeping this off the write path.
	n.barrierMu.Lock()
	release, ok := n.holdShards(n.shards)
	if !ok {
		n.barrierMu.Unlock()
		return ErrStopped
	}
	err := n.barrier.eng.Apply(e.Payload)
	release()
	n.barrierMu.Unlock()
	if err != nil {
		return err
	}
	n.stats.EntriesApplied.Add(1)
	if traced {
		n.trace.Emit(trace.SpanContext{TraceID: e.TraceID, SpanID: e.TraceSpan},
			"replica_apply", n.cfg.NodeID, -1, -1, applyStart, trace.Now())
	}
	return nil
}
