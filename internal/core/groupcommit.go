package core

import (
	"errors"

	"memorydb/internal/election"
	"memorydb/internal/obs"
	"memorydb/internal/resp"
	"memorydb/internal/txlog"
)

// Group commit (write batching). The paper's write path acknowledges a
// mutation only after its log entry commits to a quorum of AZs (§3.2), so
// naive per-mutation appends bound write throughput by one quorum
// round-trip per command. Group commit amortizes the round-trip: the
// mutations of one workloop turn — its input, a connection's drained
// pipeline served whole, and the tasks queued behind it (Node.drain) —
// accumulate their effect records here, and the end of every turn flushes
// the buffer as ONE EntryData whose payload is the concatenation of every
// buffered record; answering for that one entry releases every reply it
// holds. A buffer that reaches a records/bytes cap is flushed at once,
// partway through the turn. Between turns the buffer is empty.
//
// The workloop owns the one buffer and flushes it through the node's
// sequencer (Node.sequence).
//
// Correctness invariants:
//   - A task's reply is delivered exactly once, by the entry that holds it:
//     the open one (the buffer) until the flush, then the same entry on
//     the FIFO of issued appends, released once when the workloop answers
//     for it, or failed once by a lost append or a demotion. A mutation's
//     reply is thereby withheld until its covering entry commits.
//   - A read that observed a write not yet answered for joins the entry
//     that wrote it — the node's one hazard index names it, the open
//     buffer included — so undurable data is never exposed, even before a
//     seq exists.
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
// reaches either is flushed at once, even partway through a turn.
const (
	maxBatchRecords = 64
	maxBatchBytes   = 256 << 10
)

// groupCommit is the workloop-owned batching buffer. A buffered
// task's reply is parked on the task itself (task.val).
type groupCommit struct {
	payload []byte // concatenated effect records for the next entry
	// open is the data entry the buffer fills: the mutations behind the
	// payload, one per record, in execution order, and the reads gated on
	// them. Nil until the first mutation after a flush.
	open *issuedEntry
}

// pending reports whether the buffer holds anything to flush or gate on.
func (g *groupCommit) pending() bool { return g.open != nil }

// hazards is the node's one hazard index (§3.2): every key a write not yet
// answered for dirtied, mapped to the ordinal (Node.entries) of the newest
// entry that wrote it — the open buffer's included. The workloop owns it.
type hazards struct {
	m map[string]uint64
	// newest is the highest ordinal m holds: once the entry at it is
	// answered for, every key in m is stale.
	newest uint64
}

// note records that the entry at ord wrote keys. ord never falls: writes
// only ever go to the open buffer.
func (h *hazards) note(keys []string, ord uint64) {
	if h.m == nil {
		h.m = make(map[string]uint64)
	}
	for _, k := range keys {
		h.m[k] = ord
	}
	if len(keys) > 0 {
		h.newest = ord
	}
}

// covering returns the newest ordinal any of keys was written at, 0 when
// none of them is outstanding. A key whose entry was answered for — its
// ordinal is below first — is stale, and the lookup that finds it drops it.
// keys may be views of the read's arguments: the index keeps none of them.
func (h *hazards) covering(keys [][]byte, first uint64) uint64 {
	var ord uint64
	for _, k := range keys {
		if o, ok := h.m[string(k)]; ok && o < first {
			delete(h.m, string(k))
		} else if o > ord {
			ord = o
		}
	}
	return ord
}

// shed bounds the index once every entry below first has been answered
// for: past 1 024 keys it drops the stale ones — wholesale when every one
// is (the common case, a burst of writes all durable).
func (h *hazards) shed(first uint64) {
	if len(h.m) <= 1024 {
		return
	}
	if h.newest < first {
		clear(h.m)
		return
	}
	for k, o := range h.m {
		if o < first {
			delete(h.m, k)
		}
	}
}

// cover returns the reads of the entry a read must wait for: the newest
// one that wrote a key the read observed — reading everything, the newest
// entry of all — where the open buffer counts as the newest. Nil when every
// write the read can have observed has been answered for.
func (n *Node) cover(keys [][]byte, all bool) *[]*task {
	open, first := n.entries+1, n.unanswered()
	ord := n.hazards.covering(keys, first)
	if all {
		ord = open
		if !n.gc.pending() {
			ord--
		}
	}
	switch {
	case ord < first:
		return nil
	case ord == open:
		return &n.gc.open.reads
	}
	return &n.issued[ord-first].reads
}

// unanswered is the ordinal of the oldest entry not answered for: the
// FIFO's head, or the open buffer's entry while the FIFO is empty.
func (n *Node) unanswered() uint64 { return n.entries + 1 - uint64(len(n.issued)) }

// flushPending appends the buffered batch as one EntryData: its entry,
// with every buffered reply, joins the FIFO of issued appends. Returns
// false when the append failed (the node demoted and all buffered replies
// were failed).
func (n *Node) flushPending() bool {
	gc := &n.gc
	if !gc.pending() {
		return true
	}
	if n.Role() != election.RolePrimary {
		// Demoted (or resyncing) with mutations still buffered: a stale
		// writer must not append, and the replies were already promised an
		// error by the demotion.
		n.abortHeld(errDemoted)
		return false
	}
	fe := gc.open
	entry := txlog.Entry{Type: txlog.EntryData, Records: fe.records, Payload: gc.payload}
	gc.open, gc.payload = nil, nil // the log entry owns the payload now
	var flushStart int64
	if n.obs != nil {
		// Batch residency ends here: every buffered mutation waited from
		// its engine execution until this flush began.
		flushStart = obs.Now()
	}
	for _, w := range fe.writes {
		if w.execDone != 0 {
			n.stage(obs.StageBatchWait, w.tr.ctx(), 0, w.execDone, flushStart)
		}
		if fe.owner.TraceID == 0 {
			fe.owner = w.tr.ctx()
		}
	}
	if fe.owner.TraceID != 0 {
		fe.appendSpan = n.trace.NewSpanID()
		entry.TraceID = fe.owner.TraceID
		entry.TraceSpan = fe.appendSpan
	}
	if err := n.sequence(entry, &n.stats.AppendsRetried, fe); err != nil {
		// Transient failures were already absorbed by the retry loop
		// (replies stayed withheld throughout); reaching here means the
		// append is genuinely lost and the node has demoted. None of the
		// buffered changes may be acknowledged or stay visible (§3.2);
		// resync discards the un-logged local mutations.
		if errors.Is(err, txlog.ErrConditionFailed) {
			n.failEntry(fe, errDemoted)
		} else {
			n.failEntry(fe, errLogDown)
		}
		return false
	}
	n.stats.BatchFlushes.Add(1)
	n.stats.BatchedRecords.Add(int64(fe.records))
	if n.obs != nil {
		fe.appendDone = obs.Now()
		n.stage(obs.StageAppend, fe.owner, fe.appendSpan, flushStart, fe.appendDone)
	}
	return true
}

// abortHeld fails every reply the node withholds — the open buffer's and
// every issued entry's — with errVal, and forgets every hazard: the node
// lost the ability to commit (a lost append, a demotion), so
// unacknowledged writes must not be exposed. The entries stay on the FIFO
// until the log answers for them, releasing nothing.
func (n *Node) abortHeld(errVal resp.Value) {
	if n.gc.open != nil {
		n.failEntry(n.gc.open, errVal)
		n.gc.open, n.gc.payload = nil, nil
	}
	for _, e := range n.issued {
		n.failEntry(e, errVal)
	}
	clear(n.hazards.m)
}

// failEntry fails every reply e holds with errVal.
func (n *Node) failEntry(e *issuedEntry, errVal resp.Value) {
	for _, t := range e.writes {
		n.fail(t, errVal)
	}
	for _, t := range e.reads {
		n.fail(t, errVal)
	}
	e.writes, e.reads = nil, nil
}
