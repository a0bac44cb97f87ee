package core

import (
	"context"
	"fmt"
	"strings"

	"memorydb/internal/election"
	"memorydb/internal/engine"
	"memorydb/internal/faultpoint"
	"memorydb/internal/obs"
	"memorydb/internal/resp"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

type taskKind int

const (
	taskCmd taskKind = iota
	taskBatch
	taskRenew
	taskSweep
	taskMigCtl
	taskMigDump
	taskSlotInfo
	taskDrain
	taskPark
)

type task struct {
	kind     taskKind
	argv     [][]byte
	batch    [][][]byte
	readonly bool // client opted into replica reads (READONLY)
	// readVerified marks a readonly task the read ladder has cleared for
	// replica serving: either its freshness proof succeeded (the applied
	// position covers the committed tail captured at arrival), the
	// client's declared staleness bound holds, or the client opted into
	// eventual consistency. Replicas serve ONLY verified readonly tasks;
	// anything else is redirected, so stale data is never silently
	// returned as consistent.
	readVerified bool

	// The task is its own reply future: Node.reply writes val, then signals
	// done (one slot, one send; nil on the expiry sweep's task, which nobody
	// waits for). While a reply is withheld for durability, val parks the
	// value it will carry if the covering entry commits.
	val  resp.Value
	done chan struct{}

	// tr is the task's tracing state; nil unless the task was sampled
	// (or arrived with a span context minted by the server front-end).
	tr *taskSpan

	// name is the uppercase command name ("EXEC" for a batch), cmd its
	// command-table entry (nil for a batch, INFO, WAIT or an unknown
	// command), cmds a batch's entries, one per command, and keys the
	// keys it names, as views of argv, all set by resolve; shard is the
	// index of the shard submit routed the task to (-1 = the barrier
	// shard).
	name  string
	cmd   *engine.Command
	cmds  []*engine.Command
	keys  [][]byte
	shard int

	// Observability stamps (obs.Now monotonic nanos; 0 = not stamped):
	// enq at submit, deq at dequeue, execDone after engine execution.
	// Only set when the node's obs registry is enabled.
	enq, deq, execDone int64

	// taskDrain: closed once every task queued ahead of it has been fully
	// handled.
	swapCh chan struct{}

	// taskPark: quiesce this shard for a barrier coordinator. The shard
	// flushes its buffer, signals arrival, and blocks until release.
	parkArrived chan<- struct{}
	parkRelease <-chan struct{}

	// taskMigCtl / taskMigDump / taskSlotInfo
	mig      *MigrationStream
	migOn    bool
	slot     uint16
	wantKeys bool // taskSlotInfo: list the slot's keys, not just count them
	slotCh   chan slotInfo
}

// Do executes a client command on this node. Writes require the node to
// be a primary holding a valid lease; replies for mutations are withheld
// until the transaction log acknowledges durability.
func (n *Node) Do(ctx context.Context, argv [][]byte) (resp.Value, error) {
	return n.submit(ctx, &task{kind: taskCmd, argv: argv})
}

// DoBatch executes an atomic MULTI/EXEC group: all commands run
// back-to-back on one shard (the barrier shard when the group spans
// shards) and their effects are logged as a single record, so the group is
// atomic both locally and in the log (§2.1).
func (n *Node) DoBatch(ctx context.Context, cmds [][][]byte) (resp.Value, error) {
	return n.submit(ctx, &task{kind: taskBatch, batch: cmds})
}

// resolve names a client task and looks its command up, once: routing,
// admission, the read ladder and the engine all read the result.
func (t *task) resolve() {
	switch {
	case t.name != "":
	case t.kind == taskBatch:
		t.name = "EXEC"
		t.cmds = make([]*engine.Command, len(t.batch))
		for i, argv := range t.batch {
			if len(argv) > 0 {
				t.cmds[i] = engine.Lookup(argv[0])
			}
		}
	case len(t.argv) > 0:
		if t.cmd = engine.Lookup(t.argv[0]); t.cmd != nil {
			t.name, t.keys = t.cmd.Name, t.cmd.Keys(t.argv)
		} else {
			// INFO, WAIT (the node's own) or an unknown command.
			t.name = strings.ToUpper(string(t.argv[0]))
		}
	}
}

func (n *Node) submit(ctx context.Context, t *task) (resp.Value, error) {
	t.resolve()
	t.done = make(chan struct{}, 1)
	if n.trace != nil {
		n.traceStart(ctx, t)
	}
	if n.obs != nil {
		t.enq = obs.Now()
	}
	sh := n.route(t)
	t.shard = sh.idx
	if sh == n.barrier {
		// The coordinator runs in its own goroutine so this submit keeps
		// honoring ctx cancellation while shards quiesce.
		go n.runBarrier(t)
	} else {
		select {
		case sh.tasks <- t:
		case <-ctx.Done():
			return resp.Value{}, ctx.Err()
		case <-n.stopCtx.Done():
			return resp.Value{}, ErrStopped
		}
	}
	select {
	case <-t.done:
		return t.val, nil
	case <-ctx.Done():
		return resp.Value{}, ctx.Err()
	case <-n.stopCtx.Done():
		return resp.Value{}, ErrStopped
	}
}

// reply delivers a client task's reply — exactly once per task, by whoever
// holds it: the handler, the shard buffer or the flushed entry. For a
// mutation that is after the tracker released it, so the latency observed
// and the root span cover submit → durable → reply.
func (n *Node) reply(t *task, v resp.Value) {
	if t.done == nil {
		return
	}
	if t.enq != 0 {
		n.obsFinish(t)
	}
	if t.tr != nil {
		t.tr.c.Finish(t.tr.root)
	}
	t.val = v
	t.done <- struct{}{}
}

// release delivers a withheld reply: the value parked on the task once its
// covering entry committed, errDemoted when it never will.
func (n *Node) release(t *task, aborted bool) {
	if !aborted {
		n.reply(t, t.val)
	} else if t.done != nil { // the sweep's task holds no reply to fail
		n.abortedReplies.Add(1)
		n.reply(t, errDemoted)
	}
}

func (n *Node) handleTask(sh *nodeShard, t *task) {
	if !n.gate() {
		// Stopped while frozen: the crashed process is being torn down.
		// Drop the task without replying — exactly what a dead process
		// does; submit's stopCtx select fails the caller.
		return
	}
	switch t.kind {
	case taskCmd, taskBatch:
		n.handleClient(sh, t)
	case taskRenew:
		n.handleRenew(sh)
	case taskSweep:
		n.handleSweep(sh)
	case taskMigCtl:
		n.handleMigCtl(sh, t)
	case taskMigDump:
		n.handleMigDump(sh, t)
	case taskSlotInfo:
		info := slotInfo{count: sh.eng.DB().SlotCount(t.slot)}
		if t.wantKeys {
			info.keys = sh.eng.DB().SlotKeys(t.slot)
		}
		t.slotCh <- info
	case taskDrain:
		// Pure synchronization: reaching this point proves every task
		// queued ahead of the drain — including a flush whose retry loop
		// was failing out gated replies — has been fully handled. On a
		// node that is no longer primary, buffered mutations can never
		// become durable; fail their replies now, while the step-down is
		// externally observable.
		if n.Role() != election.RolePrimary {
			n.abortPending(sh, errDemoted)
		}
		close(t.swapCh)
	case taskPark:
		// A barrier coordinator is quiescing this shard. Flush first so
		// the coordinator observes fully-issued state (on a demoted node
		// this aborts the buffer instead), then block until release. The
		// coordinator may touch this shard's engine and buffer while we
		// are parked; the channel handshake orders those accesses.
		n.flushPending(sh)
		t.parkArrived <- struct{}{}
		select {
		case <-t.parkRelease:
		case <-n.stopCtx.Done():
		}
	}
}

var (
	errNotPrimary = resp.Err("READONLY You can't write against a read only replica.")
	errDemoted    = resp.Err("CLUSTERDOWN node lost its leadership lease")
	errStalledVal = resp.Err("CLUSTERDOWN replica stalled by newer engine version in replication stream")
	errLogDown    = resp.Err("CLUSTERDOWN transaction log unavailable")
)

// handleClient is the one client command path (§3.2): admit, execute on
// the shard's engine, then either buffer the mutation's effects for the
// log or gate the read on the writes it observed. It runs on a shard's
// workloop, or — for the barrier shard, whose engine spans the keyspace —
// on a coordinator holding every workloop parked; a command and an atomic
// batch differ only in Exec vs ExecBatch.
func (n *Node) handleClient(sh *nodeShard, t *task) {
	n.stats.Commands.Add(1)
	batch, name, cmd := t.kind == taskBatch, t.name, t.cmd
	if t.enq != 0 {
		n.obsDequeued(t)
	}
	if name == "INFO" {
		n.reply(t, resp.BulkStr(n.infoText()))
		return
	}
	local := cmd != nil && cmd.Flags&engine.FlagLocal != 0

	// The admission ladder: the one place a client task reads the node's
	// role, lease, stall flag and slot gate.
	n.mu.Lock()
	role := n.role
	lease := n.lease
	trk := n.trk
	stalled := n.stalled
	gate := n.slotGate
	n.mu.Unlock()

	if gate != nil && cmd != nil && !local {
		if errReply, rejected := gate(name, t.keys, cmd.Writes()); rejected {
			n.reply(t, errReply)
			return
		}
	}
	switch role {
	case election.RolePrimary:
		if lease == nil || !lease.Valid() {
			// A primary that cannot renew voluntarily stops servicing
			// reads and writes at the end of its lease (§4.1.3).
			n.abortPending(sh, errDemoted)
			n.demote()
			n.reply(t, errDemoted)
			return
		}
	case election.RoleReplica:
		// A replica serves always-local commands, and reads the client
		// opted into (READONLY) that passed the read ladder's freshness
		// proof before enqueue. A readonly read that arrives unverified
		// (e.g. the node became a replica between verification and
		// execution) must not be served as consistent: bounce it.
		writes := cmd == nil || (cmd.Writes() && name != "PING")
		if batch {
			// Only an all-read batch is ever verified, so an unverified
			// READONLY batch — one with a write in it included — bounces
			// to the primary below instead of failing the pipeline.
			writes = t.readVerified && !batchIsReadOnly(t.cmds)
		}
		switch {
		case stalled:
			n.reply(t, errStalledVal)
			return
		case writes, !local && !t.readonly:
			n.reply(t, errNotPrimary)
			return
		case !local && !t.readVerified:
			n.stats.ReplicaReadsRedirected.Add(1)
			n.reply(t, errRedirect)
			return
		}
	default:
		n.reply(t, errDemoted)
		return
	}

	var res engine.Result
	switch {
	case batch:
		res = sh.eng.ExecBatch(t.batch, t.cmds)
	case name == "WAIT":
		// Every acknowledged write is already durable across AZs, so WAIT
		// degenerates to a read of the whole keyspace: it gates on the
		// client's outstanding writes and replies with the number of
		// replicating AZs beyond the primary's.
		res.Reply = resp.Int64(2)
	default:
		res = sh.eng.ExecCommand(cmd, t.argv)
	}
	if t.deq != 0 {
		n.obsExecuted(t)
	}
	if role == election.RoleReplica {
		// Mutations only become visible here once committed to the log.
		n.reply(t, res.Reply)
		return
	}
	if res.Mutated() {
		n.logMutation(sh, t, res)
		return
	}
	// Read: delay the reply while any observed key has a not-yet-durable
	// mutation (key-level hazards, §3.2). Keyless whole-keyspace reads,
	// WAIT and read-only transactions (computing the union of read keys
	// across the group costs more than the conservative gate) wait for
	// everything outstanding.
	gateAll := batch || name == "WAIT" || (t.keys == nil && cmd != nil && cmd.Flags&engine.FlagKeyspace != 0)
	// A mutation the read observed may still sit in the group-commit buffer
	// (no log seq yet): the read then joins the batch and is released with
	// it. Otherwise the tracker says which issued entry covers it, if any.
	buffered := sh.gc.pending() && (gateAll || sh.gc.touchesAny(t.keys))
	var seq uint64
	if !buffered {
		if gateAll {
			seq = n.lastIssuedSeq()
		}
		if seq = trk.Covering(seq, t.keys); seq == 0 {
			n.reply(t, res.Reply)
			return
		}
	}
	t.val = res.Reply
	n.stats.GatedReads.Add(1)
	if buffered {
		sh.gc.reads = append(sh.gc.reads, t)
	} else {
		trk.RegisterWrite(seq, nil, func(aborted bool) { n.release(t, aborted) })
	}
}

// logMutation parks an executed mutation in the shard's group-commit
// buffer — its effects for the log, its reply on the task until the batch
// entry commits; the engine already applied it, and the read gating above
// controls what other clients see of it meanwhile — and flushes when
// warranted: immediately when the append pipeline has room (no latency
// added), on records/bytes caps, and otherwise when an in-flight append
// acknowledges (flush-on-ack, driven by the shard's appendAcked wakeup).
func (n *Node) logMutation(sh *nodeShard, t *task, res engine.Result) {
	n.stats.Mutations.Add(1)
	// Mirror into the migration stream at execution order — the same
	// position the effects take in the batch payload.
	n.forwardEffects(sh, res.Keys, res.Effects)
	gc := &sh.gc
	if len(gc.payload) == 0 {
		gc.payload = res.Effects // the engine never writes to it again
	} else {
		gc.payload = append(gc.payload, res.Effects...)
	}
	t.val = res.Reply
	gc.writes = append(gc.writes, t)
	gc.dirty = append(gc.dirty, res.Keys...)
	if n.shouldFlush(sh) {
		n.flushPending(sh)
	}
}

// infoText renders the INFO reply: the per-node view the monitoring
// service polls every few seconds (§5.1). Reads only atomics and
// mu-guarded fields, so any shard may serve it without quiescing the
// others.
func (n *Node) infoText() string {
	n.mu.Lock()
	role := n.role
	epoch := n.epoch
	stalled := n.stalled
	n.mu.Unlock()
	st := n.stats.Snapshot()
	logStats := n.cfg.Log.Stats()
	degraded := n.cfg.Log.Degraded()
	db := n.dbPtr.Load()
	var b strings.Builder
	fmt.Fprintf(&b, "# Replication\r\n")
	fmt.Fprintf(&b, "role:%s\r\n", role)
	fmt.Fprintf(&b, "epoch:%d\r\n", epoch)
	fmt.Fprintf(&b, "applied_seq:%d\r\n", n.appliedSeq.Load())
	fmt.Fprintf(&b, "log_committed_seq:%d\r\n", n.cfg.Log.CommittedTail().Seq)
	fmt.Fprintf(&b, "upgrade_stalled:%v\r\n", stalled)
	fmt.Fprintf(&b, "engine_version:%d\r\n", n.cfg.EngineVersion)
	fmt.Fprintf(&b, "# Stats\r\n")
	fmt.Fprintf(&b, "commands:%d\r\n", st.Commands)
	fmt.Fprintf(&b, "mutations:%d\r\n", st.Mutations)
	fmt.Fprintf(&b, "gated_reads:%d\r\n", st.GatedReads)
	fmt.Fprintf(&b, "entries_applied:%d\r\n", st.EntriesApplied)
	fmt.Fprintf(&b, "promotions:%d\r\n", st.Promotions)
	fmt.Fprintf(&b, "demotions:%d\r\n", st.Demotions)
	fmt.Fprintf(&b, "# GroupCommit\r\n")
	fmt.Fprintf(&b, "batch_flushes:%d\r\n", st.BatchFlushes)
	fmt.Fprintf(&b, "batched_records:%d\r\n", st.BatchedRecords)
	if st.BatchFlushes > 0 {
		fmt.Fprintf(&b, "mean_records_per_entry:%.2f\r\n", float64(st.BatchedRecords)/float64(st.BatchFlushes))
	}
	fmt.Fprintf(&b, "# Robustness\r\n")
	fmt.Fprintf(&b, "appends_retried:%d\r\n", st.AppendsRetried)
	fmt.Fprintf(&b, "renewals_retried:%d\r\n", st.RenewalsRetried)
	fmt.Fprintf(&b, "degraded_millis:%d\r\n", st.DegradedMillis)
	fmt.Fprintf(&b, "log_degraded:%v\r\n", degraded)
	fmt.Fprintf(&b, "log_degraded_appends:%d\r\n", logStats.DegradedAppends)
	fmt.Fprintf(&b, "torn_snapshots_detected:%d\r\n", st.TornSnapshotsDetected)
	fmt.Fprintf(&b, "reader_rebootstraps:%d\r\n", st.ReaderRebootstraps)
	fmt.Fprintf(&b, "log_gap_retries:%d\r\n", st.LogGapRetries)
	fmt.Fprintf(&b, "replica_reads_served:%d\r\n", st.ReplicaReadsServed)
	fmt.Fprintf(&b, "replica_reads_stale:%d\r\n", st.ReplicaReadsStale)
	fmt.Fprintf(&b, "replica_reads_redirected:%d\r\n", st.ReplicaReadsRedirected)
	fmt.Fprintf(&b, "replica_read_watermarks_fenced:%d\r\n", st.WatermarksFenced)
	segStats := n.cfg.Log.SegmentStats()
	fmt.Fprintf(&b, "log_segments_live:%d\r\n", segStats.LiveSegments)
	fmt.Fprintf(&b, "log_bytes_live:%d\r\n", segStats.LiveBytes)
	fmt.Fprintf(&b, "log_segments_sealed_total:%d\r\n", segStats.Sealed)
	fmt.Fprintf(&b, "log_segments_trimmed_total:%d\r\n", segStats.Trimmed)
	fmt.Fprintf(&b, "log_segments_quarantined_total:%d\r\n", segStats.Quarantined)
	if snaps := n.cfg.Snapshots; snaps != nil {
		h := snaps.Health()
		fmt.Fprintf(&b, "snapshot_builder_lag_entries:%d\r\n", h.LagEntries.Load())
		fmt.Fprintf(&b, "snapshot_deltas_emitted_total:%d\r\n", h.DeltasEmitted.Load())
		fmt.Fprintf(&b, "snapshot_compactions_total:%d\r\n", h.Compactions.Load())
		fmt.Fprintf(&b, "snapshot_chain_depth:%d\r\n", h.ChainDepth.Load())
		fmt.Fprintf(&b, "snapshot_builder_lag_alarms_total:%d\r\n", h.LagAlarms.Load())
	}
	fmt.Fprintf(&b, "shard_count:%d\r\n", len(n.shards))
	fmt.Fprintf(&b, "barrier_ops:%d\r\n", st.BarrierOps)
	fmt.Fprintf(&b, "cross_slot_ops:%d\r\n", st.CrossSlotOps)
	depths := n.QueueDepths()
	total, maxd := 0, 0
	for _, d := range depths {
		total += d
		if d > maxd {
			maxd = d
		}
	}
	fmt.Fprintf(&b, "queue_depth_total:%d\r\n", total)
	fmt.Fprintf(&b, "queue_depth_max:%d\r\n", maxd)
	for i, d := range depths {
		fmt.Fprintf(&b, "shard%d_queue_depth:%d\r\n", i, d)
	}
	fmt.Fprintf(&b, "# Keyspace\r\n")
	fmt.Fprintf(&b, "keys:%d\r\n", db.Len())
	fmt.Fprintf(&b, "used_bytes:%d\r\n", db.UsedBytes())
	b.WriteString(n.obsInfoSections())
	return b.String()
}

// handleRenew appends a lease renewal (primary only; routed to shard 0).
// The append is pipelined like any other and the lease extends from issue
// time — safe because the backoff replicas observe is strictly longer than
// the lease. Only shard 0's buffer is flushed first: a lease entry carries
// no data, so its order relative to OTHER shards' buffered mutations is
// unconstrained — each shard's own flush keeps its per-key order.
func (n *Node) handleRenew(sh *nodeShard) {
	n.mu.Lock()
	role := n.role
	lease := n.lease
	epoch := n.epoch
	trk := n.trk
	n.mu.Unlock()
	if role != election.RolePrimary || lease == nil {
		return
	}
	if !lease.Valid() {
		n.abortPending(sh, errDemoted)
		n.demote()
		return
	}
	// Flush buffered mutations first so the log order of entries matches
	// workloop execution order.
	if !n.flushPending(sh) {
		return
	}
	// Crash gate on the renewal path: a kill here lets the lease run out
	// under the frozen primary, so a thawed zombie wakes already expired.
	// A transient Error decision just skips this tick (the next one
	// retries), mirroring how a real renewal RPC can be lost.
	if n.checkpoint(faultpoint.SiteRenew) != nil {
		return
	}
	r := election.Renewal{NodeID: n.cfg.NodeID, Epoch: epoch, LeaseMs: n.cfg.Lease.Milliseconds()}
	issued := n.clk.Now()
	p, err := n.sequence(txlog.Entry{Type: txlog.EntryLease, Payload: election.EncodeRenewal(r)}, &n.stats.RenewalsRetried)
	if err != nil {
		// Fenced by another writer, or the lease expired while the retry
		// loop was absorbing an outage: the sequencer stepped down.
		n.abortPending(sh, errDemoted)
		return
	}
	lease.Renewed(issued)
	n.commitWatermarkAsync(p, trk)
}

// handleSweep runs one active-expiry cycle over this shard's owned store
// parts on the primary, replicating deterministic DELs for reaped keys —
// through the shard's own group-commit buffer, so per-key order between a
// SET and its expiry DEL is preserved.
func (n *Node) handleSweep(sh *nodeShard) {
	n.mu.Lock()
	role := n.role
	n.mu.Unlock()
	if role != election.RolePrimary {
		return
	}
	res := sh.eng.SweepExpiredParts(32, sh.partLo, sh.partHi)
	if !res.Mutated() {
		return
	}
	n.logMutation(sh, &task{shard: sh.idx}, res)
}

// demote moves the node to the demoted role; the role loop will
// resynchronize it from the log and rejoin as a replica.
func (n *Node) demote() {
	n.mu.Lock()
	if n.role != election.RolePrimary {
		n.mu.Unlock()
		return
	}
	n.role = election.RoleDemoted
	n.lease = nil
	trk := n.trk
	epoch := n.epoch
	cb := n.cfg.OnRoleChange
	n.mu.Unlock()
	failed := n.abortedReplies.Load()
	trk.Abort()
	if failed = n.abortedReplies.Load() - failed; failed > 0 {
		n.flight.Recordf(trace.EvAbort, uint64(failed), "aborted %d gated replies on step-down", failed)
	}
	n.stats.Demotions.Add(1)
	n.flight.Record(trace.EvDemotion, epoch, "lease lost or fenced")
	select {
	case n.roleChanged <- struct{}{}:
	default:
	}
	if cb != nil {
		cb(n.cfg.NodeID, election.RoleDemoted, epoch)
	}
}

// batchIsReadOnly reports whether every command in an atomic batch, as
// resolve looked them up, is a known read command — the only batches a
// replica may serve.
func batchIsReadOnly(cmds []*engine.Command) bool {
	for _, cmd := range cmds {
		if cmd == nil || cmd.Writes() {
			return false
		}
	}
	return true
}
