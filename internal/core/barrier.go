package core

import (
	"errors"
	"strings"

	"memorydb/internal/election"
	"memorydb/internal/engine"
	"memorydb/internal/faultpoint"
	"memorydb/internal/resp"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// Barrier path. Commands whose keys span execution shards — or whose
// result reflects the whole keyspace (KEYS, FLUSHALL, WAIT, …) — cannot
// run inside any single shard workloop. A coordinator goroutine quiesces
// the shards instead: each receives a park task, flushes its group-commit
// buffer (so all of its writes have log sequences), signals arrival, and
// blocks until release. With every affected shard parked the coordinator
// observes a consistent cut of the keyspace: it executes on the node's
// whole-keyspace engine, issues at most one sequencer entry for the
// effects, and releases the shards. Coordinators serialize on barrierMu;
// the same machinery drives replica apply at Shards>1, control entries,
// and state installs (promotion, resync).

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

// runBarrier coordinates one client task across shards. It mirrors
// handleCmd/handleBatch, with the whole-keyspace engine standing in for a
// shard engine and the quiesced shards guaranteeing a consistent cut.
func (n *Node) runBarrier(t *task) {
	n.stats.BarrierOps.Add(1)
	n.barrierMu.Lock()
	defer n.barrierMu.Unlock()
	if !n.gate() {
		// Stopped while frozen: drop without replying, like handleTask.
		return
	}
	n.stats.Commands.Add(1)
	var name string
	var cmd *engine.Command
	if t.kind == taskCmd {
		name = strings.ToUpper(string(t.argv[0]))
		cmd, _ = engine.LookupCommand(name)
	} else {
		name = "EXEC"
	}
	if n.obs != nil && t.enq != 0 {
		t.name = name
		n.obsDequeued(t)
	}
	n.flight.Recordf(trace.EvBarrier, 0, "all-shard barrier for %s", name)
	release, ok := n.holdShards(n.shards)
	if !ok {
		return
	}
	defer release()

	// Role snapshot AFTER the quiesce: parking may have demoted the node
	// (a shard's flush failed), and a coordinator must not append under a
	// leadership the flush already lost.
	n.mu.Lock()
	role := n.role
	lease := n.lease
	trk := n.trk
	stalled := n.stalled
	gate := n.slotGate
	n.mu.Unlock()

	if gate != nil && cmd != nil && !isAlwaysLocal(name) {
		if errReply, rejected := gate(name, cmd.Keys(t.argv), cmd.Writes()); rejected {
			t.reply(errReply)
			return
		}
	}

	if t.kind == taskCmd && name == "WAIT" {
		if role != election.RolePrimary {
			t.reply(errNotPrimary)
			return
		}
		// Every shard flushed on park, so the sequencer tail covers every
		// outstanding write.
		seq := n.lastIssuedSeq()
		trk.RegisterWrite(seq, nil, func(aborted bool) {
			if aborted {
				t.reply(errDemoted)
			} else {
				t.reply(resp.Int64(2))
			}
		})
		return
	}

	switch role {
	case election.RolePrimary:
		if lease == nil || !lease.Valid() {
			n.demote()
			t.reply(errDemoted)
			return
		}
	case election.RoleReplica:
		if stalled {
			t.reply(errStalledVal)
			return
		}
		// Only reads legitimately barrier on a replica — whole-keyspace
		// commands or all-read batches — and only with READONLY set AND
		// the read verified (or explicitly eventual) by the DoRead ladder:
		// a bare readonly task must never be served here as if it were
		// linearizable.
		if !t.readonly || !t.readVerified {
			t.reply(errNotPrimary)
			return
		}
		var res engine.Result
		switch {
		case t.kind == taskCmd && cmd != nil && !cmd.Writes():
			res = n.gEng.Exec(t.argv)
		case t.kind == taskBatch && batchIsReadOnly(t.batch):
			res = n.gEng.ExecBatch(t.batch)
		default:
			t.reply(errNotPrimary)
			return
		}
		if t.deq != 0 {
			n.obsExecuted(t)
		}
		t.reply(res.Reply)
		return
	default:
		t.reply(errDemoted)
		return
	}

	// Primary path.
	var res engine.Result
	if t.kind == taskBatch {
		res = n.gEng.ExecBatch(t.batch)
	} else {
		res = n.gEng.Exec(t.argv)
	}
	if t.deq != 0 {
		n.obsExecuted(t)
	}
	if !res.Mutated() {
		// Every buffer flushed on park, so gating at the sequencer tail
		// covers everything this read could have observed.
		n.stats.GatedReads.Add(1)
		seq := n.lastIssuedSeq()
		trk.RegisterWrite(seq, nil, func(aborted bool) {
			if aborted {
				t.reply(errDemoted)
			} else {
				t.reply(res.Reply)
			}
		})
		return
	}
	n.stats.Mutations.Add(1)
	n.forwardEffectsParked(res.Keys, res.Effects)
	n.issueBarrierEntry(t, res, trk)
}

// issueBarrierEntry appends a barrier mutation's effects as one
// single-record EntryData and gates the reply on its commit.
func (n *Node) issueBarrierEntry(t *task, res engine.Result, trk trackerIface) {
	n.mu.Lock()
	epoch := n.epoch
	n.mu.Unlock()
	payload := engine.AppendRecord(nil, res.Effects)
	entry := txlog.Entry{
		Type:          txlog.EntryData,
		Epoch:         epoch,
		EngineVersion: n.cfg.EngineVersion,
		Records:       1,
		Watermark:     trk.Committed(),
		Payload:       payload,
	}
	// A sampled barrier mutation stamps its context on the entry like a
	// group-commit flush does, so AZ acks and replica applies attach.
	var appendSpanID uint64
	var appendStart int64
	if t.tr != nil {
		appendSpanID = t.tr.c.NewSpanID()
		entry.TraceID = t.tr.sc.TraceID
		entry.TraceSpan = appendSpanID
		appendStart = trace.Now()
	}
	n.seqMu.Lock()
	p, err := n.startAppendRetry(n.lastIssued, entry, &n.stats.AppendsRetried)
	if err != nil {
		n.seqMu.Unlock()
		n.stats.AppendsFailed.Add(1)
		n.demote()
		if errors.Is(err, txlog.ErrConditionFailed) {
			t.reply(errDemoted)
		} else {
			t.reply(errLogDown)
		}
		return
	}
	n.lastIssued = p.ID()
	n.runningChecksum = txlog.ChainChecksum(n.runningChecksum, payload)
	n.dataSinceSum++
	var cp *txlog.Pending
	if n.cfg.ChecksumEvery > 0 && n.dataSinceSum >= n.cfg.ChecksumEvery {
		cp = n.injectChecksumLocked()
	}
	n.seqMu.Unlock()
	seq := p.ID().Seq
	n.stats.BatchFlushes.Add(1)
	n.stats.BatchedRecords.Add(1)
	if t.tr != nil {
		t.tr.c.EmitWithID(appendSpanID, t.tr.sc, "append", n.cfg.NodeID, -1, appendStart, trace.Now())
	}
	trk.RegisterWrite(seq, res.Keys, func(aborted bool) {
		if aborted {
			t.reply(errDemoted)
		} else {
			t.reply(res.Reply)
		}
	})
	go func() {
		if _, err := p.Wait(n.stopCtx); err == nil {
			if n.checkpoint(faultpoint.SiteFlushPost) == nil &&
				n.checkpoint(faultpoint.SiteTrackerRelease) == nil {
				n.noteAZHealth(p)
				trk.Commit(seq)
			}
		}
	}()
	if cp != nil {
		n.commitWatermarkAsync(cp, trk)
	}
}

// installState atomically replaces the node's engine state and/or log
// positions from the role loop (promotion installs positions; resync
// installs a rebuilt engine). All shards are parked; any buffered,
// never-logged mutations are discarded with errors — their clients must
// see failures, not silence (the node demoted before the resync that
// produced this install). Returns false when the node stopped.
func (n *Node) installState(newEng *engine.Engine, newApplied txlog.EntryID, setIssued bool, newChecksum uint64) bool {
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
		n.gEng = newEng
		for _, sh := range n.shards {
			eng := engine.NewShared(n.clk, db)
			eng.SetObs(n.obs)
			eng.SetTrace(n.trace)
			eng.SetFlight(n.flight)
			sh.eng = eng
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
	n.seqMu.Lock()
	if setIssued {
		n.lastIssued = newApplied
		n.runningChecksum = newChecksum
		n.dataSinceSum = 0
	} else {
		n.lastIssued = txlog.ZeroID
	}
	n.seqMu.Unlock()
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
	if len(n.shards) == 1 {
		// Single shard: round-trip through the workloop, exactly the
		// pre-sharding apply path.
		t := &task{kind: taskApply, entry: e, applyCh: make(chan error, 1), shard: 0}
		select {
		case n.shards[0].tasks <- t:
		case <-n.stopCtx.Done():
			return ErrStopped
		}
		select {
		case err := <-t.applyCh:
			if err != nil {
				return err
			}
		case <-n.stopCtx.Done():
			return ErrStopped
		}
	} else {
		// Record boundaries inside an entry payload are not framed, so an
		// entry cannot be split across shards; apply it atomically on the
		// whole-keyspace engine under an all-shard barrier. Replica
		// workloops only serve reads, so the barrier never waits on a
		// flush — and primaries never apply, keeping this off the
		// benchmark write path.
		n.barrierMu.Lock()
		release, ok := n.holdShards(n.shards)
		if !ok {
			n.barrierMu.Unlock()
			return ErrStopped
		}
		err := n.gEng.Apply(e.Payload)
		release()
		n.barrierMu.Unlock()
		if err != nil {
			return err
		}
	}
	n.stats.EntriesApplied.Add(1)
	if traced {
		n.trace.Emit(trace.SpanContext{TraceID: e.TraceID, SpanID: e.TraceSpan},
			"replica_apply", n.cfg.NodeID, -1, -1, applyStart, trace.Now())
	}
	return nil
}
