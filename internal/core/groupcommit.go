package core

import (
	"errors"
	"sync/atomic"

	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/obs"
	"memorydb/internal/resp"
	"memorydb/internal/trace"
	"memorydb/internal/tracker"
	"memorydb/internal/txlog"
)

// Group commit (write batching). The paper's write path acknowledges a
// mutation only after its log entry commits to a quorum of AZs (§3.2), so
// naive per-mutation appends bound write throughput by one quorum
// round-trip per command. Group commit amortizes the round-trip: while an
// append is in flight the workloop keeps executing queued mutations and
// accumulates their effect records here; when the in-flight append
// acknowledges — or a records/bytes cap is hit — the buffer is flushed as
// ONE EntryData whose payload is the concatenation of every buffered
// record, and a single tracker.Commit releases every reply gated on it.
//
// The workloop owns the one buffer and flushes it through the node's
// sequencer (Node.sequence); at most MaxInflightAppends flushed entries
// await quorum at once.
//
// Correctness invariants:
//   - A task's reply is delivered exactly once, by whoever holds it: the
//     buffer before the flush (a lost append or a demotion fails it),
//     the flushed entry after (the tracker releases the entry once, on
//     Commit or on Abort). A mutation's reply is thereby withheld until its
//     covering entry commits.
//   - Reads that observed a buffered-but-unflushed mutation gate on the
//     batch itself (the workloop tracks the buffer's dirty-key set), so
//     undurable data is never exposed even before a seq exists.
//   - A flush distinguishes fenced from transient failures: a transient
//     error (service blip, below-quorum AZ set) re-enters the retry loop
//     with every buffered reply still withheld, while a fenced append —
//     or exhausting the lease-bounded retry deadline — demotes the node
//     and fails every buffered reply.
//   - Non-data appends (lease renewals, checksums, control records) flush
//     the buffer first, so the log order of entries always
//     matches execution order where it is observable.
//   - The running checksum chains over data payloads in sequencer issue
//     order (see Node.sequence), so an EntryChecksum's payload always
//     equals the chain over the exact log prefix preceding it.

// maxBatchRecords and maxBatchBytes cap one batched entry: a buffer that
// reaches either is flushed whatever the append window says.
const (
	maxBatchRecords = 64
	maxBatchBytes   = 256 << 10
)

// groupCommit is the workloop-owned batching buffer. A buffered
// task's reply is parked on the task itself (task.val).
type groupCommit struct {
	payload []byte  // concatenated effect records for the next entry
	writes  []*task // the mutations behind them, one per record, in execution order
	reads   []*task // reads/barriers gated on this batch
	// dirty lists the keys the buffered mutations dirtied, repeats
	// included, for the tracker and touchesAny. index is a set over
	// dirty[:indexed], which touchesAny brings up to date when a read
	// probes the buffer, so a buffer no read probes builds none.
	dirty   []string
	index   map[string]struct{}
	indexed int
	// inflight counts flushed-but-unacknowledged data appends. Written by
	// the completion loop too, read by the workloop (hence atomic —
	// everything else in this struct is workloop-only).
	inflight atomic.Int64
}

// pending reports whether the buffer holds anything to flush or gate on.
func (g *groupCommit) pending() bool { return len(g.writes) > 0 }

// touchesAny reports whether any of keys was dirtied by a buffered
// mutation.
func (g *groupCommit) touchesAny(keys [][]byte) bool {
	if g.index == nil {
		g.index = make(map[string]struct{}, len(g.dirty))
	}
	for _, d := range g.dirty[g.indexed:] {
		g.index[d] = struct{}{}
	}
	g.indexed = len(g.dirty)
	for _, k := range keys {
		if _, ok := g.index[string(k)]; ok {
			return true
		}
	}
	return false
}

func (g *groupCommit) reset() {
	// The log entry owns the flushed payload now and the flushed entry the
	// task lists; start fresh ones rather than reusing the backing arrays.
	g.payload, g.writes, g.reads = nil, nil, nil
	g.dirty = g.dirty[:0]
	if g.indexed > 0 {
		clear(g.index)
		g.indexed = 0
	}
}

// shouldFlush reports whether the buffer must be flushed now: a cap was
// hit, or the append pipeline has room (flushing while the window is open
// adds no latency — appends to the log pipeline commit in order — and
// holding back would only delay the buffered replies).
func (n *Node) shouldFlush() bool {
	gc := &n.gc
	if !gc.pending() {
		return false
	}
	return len(gc.writes) >= maxBatchRecords ||
		len(gc.payload) >= maxBatchBytes ||
		gc.inflight.Load() < int64(n.cfg.MaxInflightAppends)
}

// flushedEntry is one flushed batch from append to release: the holder of
// its tasks' replies once they left the buffer. Two things happen to
// it, each once: the log answers for it (committed) and the tracker lets
// its replies go (released).
type flushedEntry struct {
	n      *Node
	trk    *tracker.Tracker
	p      *txlog.Pending
	writes []*task // the batch's mutations, in execution order
	reads  []*task // reads that observed one of them while it was buffered
	// owner is the first traced write. The append and quorum intervals are
	// shared by every reply in the batch, so one trace records them, and
	// the entry carries that trace's context into the log so per-AZ acks
	// and remote replica applies attach to the same tree. appendSpan is
	// allocated up front — it must be on the entry before the append is
	// issued, but the span itself is only emitted once the append returns.
	owner      *taskSpan
	appendSpan uint64
	// Stage stamps (obs.Now nanos, 0 = not taken): the flush began, the
	// append returned, the quorum acknowledged. ackAt is written by
	// committed and read by released — both on the completion loop, or
	// released first, on the flushing workloop, before committed is queued.
	flushStart, appendDone, ackAt int64
}

// flushPending appends the buffered batch as one EntryData and hands
// every buffered reply to the entry, gated on its commit. Returns false
// when the append failed (the node demoted and all buffered replies were
// failed).
func (n *Node) flushPending() bool {
	gc := &n.gc
	if !gc.pending() {
		return true
	}
	n.mu.Lock()
	role := n.role
	trk := n.trk
	n.mu.Unlock()
	if role != election.RolePrimary {
		// Demoted (or resyncing) with mutations still buffered: a stale
		// writer must not append, and the replies were already promised an
		// error by the demotion.
		n.abortPending(errDemoted)
		return false
	}
	fe := &flushedEntry{n: n, trk: trk, writes: gc.writes, reads: gc.reads}
	if n.obs != nil {
		// Batch residency ends here: every buffered mutation waited from
		// its engine execution until this flush began.
		fe.flushStart = obs.Now()
	}
	for _, w := range fe.writes {
		if w.execDone != 0 {
			n.obs.Stage(obs.StageBatchWait).ObserveNanos(fe.flushStart - w.execDone)
			if w.tr != nil {
				w.tr.c.Emit(w.tr.sc, "batch_wait", n.cfg.NodeID, -1, w.execDone, fe.flushStart)
			}
		}
		if fe.owner == nil {
			fe.owner = w.tr
		}
	}
	entry := txlog.Entry{Type: txlog.EntryData, Records: uint32(len(fe.writes)), Payload: gc.payload}
	if fe.owner != nil {
		fe.appendSpan = fe.owner.c.NewSpanID()
		entry.TraceID = fe.owner.sc.TraceID
		entry.TraceSpan = fe.appendSpan
	}
	var err error
	if fe.p, err = n.sequence(entry, &n.stats.AppendsRetried); err != nil {
		// Transient failures were already absorbed by the retry loop
		// (replies stayed withheld throughout); reaching here means the
		// append is genuinely lost and the node has demoted. None of the
		// buffered changes may be acknowledged or stay visible (§3.2);
		// resync discards the un-logged local mutations.
		if errors.Is(err, txlog.ErrConditionFailed) {
			n.abortPending(errDemoted)
		} else {
			n.abortPending(errLogDown)
		}
		return false
	}
	n.stats.BatchFlushes.Add(1)
	n.stats.BatchedRecords.Add(int64(len(fe.writes)))
	if n.obs != nil {
		fe.appendDone = obs.Now()
		n.obs.Stage(obs.StageAppend).ObserveNanos(fe.appendDone - fe.flushStart)
		if fe.owner != nil {
			fe.owner.c.EmitWithID(fe.appendSpan, fe.owner.sc, "append", n.cfg.NodeID, fe.flushStart, fe.appendDone)
		}
	}
	trk.RegisterWrite(fe.p.ID().Seq, gc.dirty, fe.released)
	gc.reset()
	gc.inflight.Add(1)
	n.onCommit(fe.p, fe.committed)
	return true
}

// committed is the completion-loop half: the log has answered for the
// entry, with err nil when it is quorum-durable.
func (fe *flushedEntry) committed(err error) {
	n := fe.n
	if err == nil {
		if fe.appendDone != 0 {
			fe.ackAt = obs.Now()
			n.obs.Stage(obs.StageQuorumWait).ObserveNanos(fe.ackAt - fe.appendDone)
			if fe.owner != nil {
				// Child of the append span, sibling of the per-AZ acks
				// the log service emitted for the same entry.
				fe.owner.c.Emit(trace.SpanContext{TraceID: fe.owner.sc.TraceID, SpanID: fe.appendSpan},
					"quorum_wait", n.cfg.NodeID, -1, fe.appendDone, fe.ackAt)
			}
		}
		// Two crash gates inside the committed-but-unacknowledged
		// window: the entry is quorum-durable, but a kill at either
		// point means no gated reply is ever delivered — the harness's
		// "durable yet unacknowledged" case. On a checkpoint failure the
		// commit is skipped but the inflight decrement and wakeup below
		// still run, so a thawed zombie's workloop is not wedged.
		if n.checkpoint(faultpoint.SiteFlushPost) == nil &&
			n.checkpoint(faultpoint.SiteTrackerRelease) == nil {
			n.noteAZHealth(fe.p)
			fe.trk.Commit(fe.p.ID().Seq)
		}
	}
	n.gc.inflight.Add(-1)
	// Coalesced poke: wake the workloop so the batch that accumulated
	// behind this round-trip flushes promptly.
	select {
	case n.appendAcked <- struct{}{}:
	default:
	}
}

// released is the tracker's deliver for the entry: its Commit let the
// replies go, or — aborted — the node lost the ability to commit and every
// write and batch-gated read fails with errDemoted.
func (fe *flushedEntry) released(aborted bool) {
	n := fe.n
	for _, w := range fe.writes {
		if !aborted && fe.ackAt != 0 {
			now := obs.Now()
			n.obs.Stage(obs.StageTrackerRelease).ObserveNanos(now - fe.ackAt)
			if w.tr != nil {
				w.tr.c.Emit(w.tr.sc, "tracker_release", n.cfg.NodeID, -1, fe.ackAt, now)
			}
		}
		n.release(w, aborted)
	}
	for _, r := range fe.reads {
		n.release(r, aborted)
	}
}

// abortPending fails every reply parked in the buffer with errVal. Called
// on flush failure and on demotion/resync while mutations were buffered.
func (n *Node) abortPending(errVal resp.Value) {
	gc := &n.gc
	for _, w := range gc.writes {
		n.reply(w, errVal)
	}
	for _, r := range gc.reads {
		n.reply(r, errVal)
	}
	gc.reset()
}
