package core

import (
	"errors"
	"sync/atomic"

	"memorydb/internal/election"
	"memorydb/internal/engine"
	"memorydb/internal/faultpoint"
	"memorydb/internal/obs"
	"memorydb/internal/resp"
	"memorydb/internal/trace"
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
// Each shard — the barrier shard included — owns one of these buffers and
// flushes independently through the node's sequencer (Node.sequence), the
// only point where shards serialize. Per-shard pipeline depth means total
// append concurrency is Shards × MaxInflightAppends.
//
// Correctness invariants:
//   - A mutation's reply is withheld until its covering entry commits
//     (buffered replies are registered with the tracker at flush, all at
//     the batch entry's seq).
//   - Reads that observed a buffered-but-unflushed mutation gate on the
//     batch itself (the workloop tracks the buffer's dirty-key set), so
//     undurable data is never exposed even before a seq exists. A key's
//     reads and writes land on the same shard, so the shard-local
//     dirty-key set is complete for the keys it can be asked about.
//   - A flush distinguishes fenced from transient failures: a transient
//     error (service blip, below-quorum AZ set) re-enters the retry loop
//     with every buffered reply still withheld, while a fenced append —
//     or exhausting the lease-bounded retry deadline — demotes the node
//     and fails every buffered reply.
//   - Non-data appends (lease renewals, checksums, control records) flush
//     the affected buffers first, so the log order of entries always
//     matches execution order where it is observable.
//   - The running checksum chains over data payloads in sequencer issue
//     order (see Node.sequence), so an EntryChecksum's payload always
//     equals the chain over the exact log prefix preceding it.

// maxBatchBytes caps the combined payload of one batched entry
// (flush-on-bytes).
const maxBatchBytes = 256 << 10

// gatedReply is one client reply parked in the group-commit buffer.
type gatedReply struct {
	keys []string // dirty keys (mutations only; nil for gated reads)
	val  resp.Value
	send func(v resp.Value)
	// execDone is the mutation's engine-execution stamp (obs.Now nanos,
	// 0 when unstamped) — batch residency is measured from it at flush.
	execDone int64
	// tr carries the originating task's tracing state into the flush
	// (nil unless the task was sampled).
	tr *taskSpan
}

// groupCommit is one shard's workloop-owned batching buffer.
type groupCommit struct {
	payload []byte       // concatenated effect records for the next entry
	records int          // logical records in payload
	writes  []gatedReply // mutation replies awaiting flush
	reads   []gatedReply // reads/barriers gated on this batch
	keys    map[string]struct{}
	// inflight counts flushed-but-unacknowledged data appends. Written by
	// the completion loop too, read by the workloop (hence atomic —
	// everything else in this struct is workloop-only).
	inflight atomic.Int64
}

// pending reports whether the buffer holds anything to flush or gate on.
func (g *groupCommit) pending() bool { return g.records > 0 }

// touchesAny reports whether any of keys was dirtied by a buffered
// mutation.
func (g *groupCommit) touchesAny(keys []string) bool {
	if len(g.keys) == 0 {
		return false
	}
	for _, k := range keys {
		if _, ok := g.keys[k]; ok {
			return true
		}
	}
	return false
}

func (g *groupCommit) reset() {
	// The flushed payload slice is owned by the log entry now; start a
	// fresh one rather than reusing the backing array.
	g.payload = nil
	g.records = 0
	g.writes = g.writes[:0]
	g.reads = g.reads[:0]
	clear(g.keys)
}

// bufferMutation parks an executed mutation's effects and reply in the
// shard's batch. The engine already applied the mutation locally;
// visibility to other clients is controlled by the read-gating below, and
// the reply is withheld until the batch entry commits.
func (n *Node) bufferMutation(sh *nodeShard, t *task, res engine.Result) {
	gc := &sh.gc
	gc.payload = engine.AppendRecord(gc.payload, res.Effects)
	gc.records++
	gc.writes = append(gc.writes, gatedReply{keys: res.Keys, val: res.Reply, send: t.reply, execDone: t.execDone, tr: t.tr})
	if gc.keys == nil {
		gc.keys = make(map[string]struct{}, 16)
	}
	for _, k := range res.Keys {
		gc.keys[k] = struct{}{}
	}
}

// shouldFlush reports whether the shard's buffer must be flushed now: a
// cap was hit, or the shard's append pipeline has room (flushing while
// the window is open adds no latency — appends to the log pipeline commit
// in order — and holding back would only delay the buffered replies).
func (n *Node) shouldFlush(sh *nodeShard) bool {
	gc := &sh.gc
	if !gc.pending() {
		return false
	}
	return gc.records >= n.cfg.MaxBatchRecords ||
		len(gc.payload) >= maxBatchBytes ||
		gc.inflight.Load() < int64(n.cfg.MaxInflightAppends)
}

// flushPending appends the shard's buffered batch as one EntryData and
// gates every buffered reply on its commit. Returns false when the append
// failed (the node demoted and all buffered replies were failed).
func (n *Node) flushPending(sh *nodeShard) bool {
	gc := &sh.gc
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
		n.abortPending(sh, errDemoted)
		return false
	}
	var flushStart int64
	if n.obs != nil {
		// Batch residency ends here: every buffered mutation waited from
		// its engine execution until this flush began.
		flushStart = obs.Now()
		for _, w := range gc.writes {
			if w.execDone != 0 {
				n.obs.Stage(obs.StageBatchWait).ObserveNanos(flushStart - w.execDone)
				if w.tr != nil {
					w.tr.c.Emit(w.tr.sc, "batch_wait", n.cfg.NodeID, -1, sh.idx, w.execDone, flushStart)
				}
			}
		}
	}
	// The first traced write in the batch owns the batch-level spans: the
	// append and quorum intervals are shared by every buffered reply, so
	// one trace records them, and the entry carries that trace's context
	// into the log so per-AZ acks and remote replica applies attach to
	// the same tree. The append span's ID is allocated up front — it must
	// be on the entry before the append is issued, but the span itself is
	// only emitted once the append returns.
	var ownerTr *taskSpan
	var appendSpanID uint64
	for _, w := range gc.writes {
		if w.tr != nil {
			ownerTr = w.tr
			break
		}
	}
	entry := txlog.Entry{Type: txlog.EntryData, Records: uint32(gc.records), Payload: gc.payload}
	if ownerTr != nil {
		appendSpanID = ownerTr.c.NewSpanID()
		entry.TraceID = ownerTr.sc.TraceID
		entry.TraceSpan = appendSpanID
	}
	p, err := n.sequence(entry, &n.stats.AppendsRetried)
	if err != nil {
		// Transient failures were already absorbed by the retry loop
		// (replies stayed withheld throughout); reaching here means the
		// append is genuinely lost and the node has demoted. None of the
		// buffered changes may be acknowledged or stay visible (§3.2);
		// resync discards the un-logged local mutations.
		if errors.Is(err, txlog.ErrConditionFailed) {
			n.abortPending(sh, errDemoted)
		} else {
			n.abortPending(sh, errLogDown)
		}
		return false
	}
	seq := p.ID().Seq
	n.stats.BatchFlushes.Add(1)
	n.stats.BatchedRecords.Add(int64(gc.records))
	// ackAt is the batch's quorum-acknowledgement stamp, written by the
	// completion loop and read by the tracker deliver closures (which
	// may run on its Commit or on an Abort from elsewhere — hence
	// atomic). One cell is shared by every reply in the batch.
	var ackAt *atomic.Int64
	var appendDone int64
	if n.obs != nil {
		appendDone = obs.Now()
		n.obs.Stage(obs.StageAppend).ObserveNanos(appendDone - flushStart)
		ackAt = new(atomic.Int64)
		if ownerTr != nil {
			ownerTr.c.EmitWithID(appendSpanID, ownerTr.sc, "append", n.cfg.NodeID, sh.idx, flushStart, appendDone)
		}
	}
	for _, w := range gc.writes {
		w := w
		trk.RegisterWrite(seq, w.keys, func(aborted bool) {
			if aborted {
				w.send(errDemoted)
				return
			}
			if ackAt != nil {
				if at := ackAt.Load(); at != 0 {
					now := obs.Now()
					n.obs.Stage(obs.StageTrackerRelease).ObserveNanos(now - at)
					if w.tr != nil {
						w.tr.c.Emit(w.tr.sc, "tracker_release", n.cfg.NodeID, -1, sh.idx, at, now)
					}
				}
			}
			w.send(w.val)
		})
	}
	for _, r := range gc.reads {
		trk.RegisterWrite(seq, nil, gateReply(r.send, r.val))
	}
	gc.reset()
	gc.inflight.Add(1)
	n.onCommit(p, func(err error) {
		if err == nil {
			if ackAt != nil {
				now := obs.Now()
				ackAt.Store(now)
				n.obs.Stage(obs.StageQuorumWait).ObserveNanos(now - appendDone)
				if ownerTr != nil {
					// Child of the append span, sibling of the per-AZ acks
					// the log service emitted for the same entry.
					ownerTr.c.Emit(trace.SpanContext{TraceID: ownerTr.sc.TraceID, SpanID: appendSpanID},
						"quorum_wait", n.cfg.NodeID, -1, sh.idx, appendDone, now)
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
				n.noteAZHealth(p)
				trk.Commit(seq)
			}
		}
		gc.inflight.Add(-1)
		// Coalesced poke: wake the shard workloop so the batch that
		// accumulated behind this round-trip flushes promptly (the barrier
		// shard has no workloop and a nil channel: never ready).
		select {
		case sh.appendAcked <- struct{}{}:
		default:
		}
	})
	return true
}

// abortPending fails every reply parked in the shard's buffer with
// errVal. Called on flush failure and on demotion/resync while mutations
// were buffered.
func (n *Node) abortPending(sh *nodeShard, errVal resp.Value) {
	gc := &sh.gc
	if gc.records == 0 && len(gc.reads) == 0 {
		return
	}
	for _, w := range gc.writes {
		w.send(errVal)
	}
	for _, r := range gc.reads {
		r.send(errVal)
	}
	gc.reset()
}
