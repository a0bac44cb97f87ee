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

type taskKind uint8

const (
	taskCmd taskKind = iota
	taskBatch
	// taskFunc is node-internal work another goroutine hands over: a
	// control append, a step-down or a migration step.
	taskFunc
	// taskWait is a WaitApplied: fn parks it beside the replica's parked
	// reads, and the end of a turn answers it (readpath.go).
	taskWait
)

type task struct {
	kind     taskKind
	readonly bool // client opted into replica reads (READONLY)
	argv     [][]byte
	batch    [][][]byte
	// opts is a readonly read's declared consistency and outcome the rung
	// of the replica read ladder that answers it, set on the workloop
	// (readpath.go): a replica serves a readonly read only once the ladder
	// cleared it, so stale data is never silently returned as consistent.
	opts    ReadOpts
	outcome ReadOutcome

	// The task is its own reply future: Node.reply writes val, then signals
	// done (one slot, one send; nil on the expiry sweep's task, which
	// nobody waits for). While a reply is withheld for durability, val
	// parks the value it will carry if the covering entry commits. A
	// taskFunc hands fn's error back in err instead, then signals done, and
	// so does a taskWait with WaitApplied's result once it is answered.
	val  resp.Value
	done chan struct{}
	fn   func() error
	err  error

	// tr is the task's tracing state; nil unless the task was sampled
	// (or arrived with a span context minted by the server front-end).
	tr *taskSpan

	// name is the uppercase command name ("EXEC" for a batch), cmd its
	// command-table entry (nil for a batch, INFO, WAIT or an unknown
	// command), cmds a batch's entries, one per command, and keys the
	// keys it names, as views of argv, all set by resolve.
	name string
	cmd  *engine.Command
	cmds []*engine.Command
	keys [][]byte

	// Observability stamps (obs.Now monotonic nanos; 0 = not stamped):
	// enq at submit, deq at dequeue, execDone after engine execution.
	// Only set when the node's obs registry is enabled.
	enq, deq, execDone int64
}

// Do executes a client command on this node. Writes require the node to
// be a primary holding a valid lease; replies for mutations are withheld
// until the transaction log acknowledges durability.
func (n *Node) Do(ctx context.Context, argv [][]byte) (resp.Value, error) {
	return n.submit(ctx, &task{kind: taskCmd, argv: argv})
}

// DoBatch executes an atomic MULTI/EXEC group: all commands run
// back-to-back on the workloop and their effects are logged as a single
// record, so the group is atomic both locally and in the log (§2.1).
func (n *Node) DoBatch(ctx context.Context, cmds [][][]byte) (resp.Value, error) {
	return n.submit(ctx, &task{kind: taskBatch, batch: cmds})
}

// resolve names a client task and looks its command up, once: admission,
// the read ladder and the engine all read the result.
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
	if err := n.enqueue(ctx, t); err != nil {
		return resp.Value{}, err
	}
	return t.val, nil
}

// run executes fn on the workloop and returns its error. Node-internal
// work is a task like any command, so the queue alone serializes it with
// them: no lock, no quiesce.
func (n *Node) run(ctx context.Context, fn func() error) error {
	t := &task{kind: taskFunc, fn: fn, done: make(chan struct{}, 1)}
	if err := n.enqueue(ctx, t); err != nil {
		return err
	}
	return t.err
}

// enqueue queues t on the workloop and waits for its done signal. It fails
// with ctx's error or ErrStopped when either ends first; t may still run.
func (n *Node) enqueue(ctx context.Context, t *task) error {
	select {
	case n.tasks <- t:
	case <-ctx.Done():
		return ctx.Err()
	case <-n.stopCtx.Done():
		return ErrStopped
	}
	select {
	case <-t.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-n.stopCtx.Done():
		return ErrStopped
	}
}

// workloop is the node's one goroutine (§3: the engine stays
// single-threaded), and its one event loop: it runs every command, every
// piece of node-internal work, the node's lifecycle (roles.go) and reply
// release. It is pipelined for group commit: mutations execute and buffer
// while quorum appends are in flight, and the oldest append's commit
// answers for every committed append and flushes the accumulated batch.
// Go's select picks among the ready cases at random, so a lagging tailer
// and the clients take turns. A turn's step-down is handled at its end, and
// so are the parked tasks it can answer.
func (n *Node) workloop() {
	defer n.wg.Done()
	n.restore() // bootstrap: restore state before tailing
	for {
		var head <-chan struct{} // nil, never ready, while nothing is in flight
		if len(n.issued) > 0 {
			head = n.issued[0].p.Done()
		}
		select {
		case <-n.stopCtx.Done():
			return
		case t := <-n.tasks:
			if !n.gate() {
				// Stopped while frozen: the crashed process is being torn
				// down. Drop the task without replying — exactly what a dead
				// process does; submit's stopCtx select fails the caller.
				return
			}
			n.handleTask(t)
		case <-head:
			if !n.gate() {
				return
			}
			n.runCompleted()
			// Flush the batch that accumulated behind the quorum round-trip.
			n.flushPending()
		case <-n.life.ready:
			if !n.gate() {
				return
			}
			n.tail()
		case <-n.life.timer:
			if !n.gate() {
				return
			}
			n.life.timer = nil
			n.roleTimer()
		case <-n.readTimer:
			if !n.gate() {
				return
			}
			n.readTimer = nil // unpark degrades the expired reads
		}
		if n.roleChanged {
			n.roleChanged = false
			n.roleChangedStep()
		}
		if len(n.parked) > 0 {
			n.unpark()
		}
	}
}

// reply delivers a client task's reply — exactly once per task, by whoever
// holds it: the handler or the entry the reply waits on. For a mutation
// that is after the workloop answered for its entry, so the latency
// observed and the root span cover submit → durable → reply.
func (n *Node) reply(t *task, v resp.Value) {
	if t.done == nil {
		return
	}
	if t.enq != 0 {
		n.obsFinish(t)
	}
	if t.tr != nil {
		n.trace.Finish(t.tr.root)
	}
	t.val = v
	t.done <- struct{}{}
}

// fail delivers errVal in place of a withheld reply whose entry will never
// be answered for, and counts it.
func (n *Node) fail(t *task, errVal resp.Value) {
	if t.done != nil { // the sweep's task holds no reply to fail
		n.abortedReplies.Add(1)
		n.reply(t, errVal)
	}
}

func (n *Node) handleTask(t *task) {
	switch t.kind {
	case taskFunc:
		t.err = t.fn()
		t.done <- struct{}{}
	case taskWait:
		t.fn()
	default:
		n.handleClient(t)
	}
}

var (
	errNotPrimary = resp.Err("READONLY You can't write against a read only replica.")
	errDemoted    = resp.Err("CLUSTERDOWN node lost its leadership lease")
	errStalledVal = resp.Err("CLUSTERDOWN replica stalled by newer engine version in replication stream")
	errLogDown    = resp.Err("CLUSTERDOWN transaction log unavailable")
)

// handleClient is the one client command path (§3.2): admit, execute on
// the engine, then either buffer the mutation's effects for the log or
// gate the read on the writes it observed. A single-key command, a
// cross-slot one and an atomic batch differ only in Exec vs ExecBatch.
func (n *Node) handleClient(t *task) {
	n.stats.Commands.Add(1)
	if t.enq != 0 {
		n.obsDequeued(t)
	}
	if t.name == "INFO" {
		n.reply(t, resp.BulkStr(n.infoText()))
		return
	}
	n.serve(t)
}

// serve is the admission ladder and everything after it. A replica read
// the ladder parked comes back here when it leaves the list of parked
// reads, so it is admitted against the node as it is then.
func (n *Node) serve(t *task) {
	batch, name, cmd := t.kind == taskBatch, t.name, t.cmd
	local := cmd != nil && cmd.Flags&engine.FlagLocal != 0

	// The admission ladder: the one place a client task reads the node's
	// role, lease, stall flag and slot gate.
	n.mu.Lock()
	role := n.role
	lease := n.lease
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
			n.demote()
			n.reply(t, errDemoted)
			return
		}
	case election.RoleReplica:
		// A replica serves always-local commands, and reads the client
		// opted into (READONLY) once the read ladder clears them. A
		// READONLY batch with a write in it bounces to the primary instead
		// of failing the pipeline.
		writes := !batch && (cmd == nil || (cmd.Writes() && name != "PING"))
		switch {
		case stalled:
			n.reply(t, errStalledVal)
			return
		case writes, !local && !t.readonly:
			n.reply(t, errNotPrimary)
			return
		case batch && !batchIsReadOnly(t.cmds):
			n.redirect(t)
			return
		case !local && !n.readLadder(t):
			return
		}
	default:
		n.reply(t, errDemoted)
		return
	}

	var res engine.Result
	switch {
	case batch:
		res = n.eng.ExecBatch(t.batch, t.cmds)
	case name == "WAIT":
		// Every acknowledged write is already durable across AZs, so WAIT
		// degenerates to a read of the whole keyspace: it gates on the
		// client's outstanding writes and replies with the number of
		// replicating AZs beyond the primary's.
		res.Reply = resp.Int64(2)
	default:
		res = n.eng.ExecCommand(cmd, t.argv)
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
		n.logMutation(t, res)
		return
	}
	// Read: delay the reply while any observed key has a not-yet-durable
	// mutation (key-level hazards, §3.2). Keyless whole-keyspace reads,
	// WAIT and read-only transactions (computing the union of read keys
	// across the group costs more than the conservative gate) wait for
	// everything outstanding.
	gateAll := batch || name == "WAIT" || (t.keys == nil && cmd != nil && cmd.Flags&engine.FlagKeyspace != 0)
	if gateAll {
		n.stats.BarrierOps.Add(1)
	}
	// The read joins the entry whose answer covers it — the buffer's, if a
	// mutation it observed has no log seq yet.
	held := n.cover(t.keys, gateAll)
	if held == nil {
		n.reply(t, res.Reply)
		return
	}
	t.val = res.Reply
	n.stats.GatedReads.Add(1)
	*held = append(*held, t)
}

// logMutation parks an executed mutation in the group-commit buffer — its
// effects for the log, its reply on the task until the batch entry
// commits; the engine already applied it, and the read gating above
// controls what other clients see of it meanwhile — and flushes when
// warranted: immediately when the append pipeline has room (no latency
// added), on records/bytes caps, and otherwise when an in-flight append
// acknowledges (flush-on-ack, the workloop's case on the oldest append).
func (n *Node) logMutation(t *task, res engine.Result) {
	n.stats.Mutations.Add(1)
	// Mirror into the migration stream at execution order — the same
	// position the effects take in the batch payload.
	n.forwardEffects(res.Keys, res.Effects)
	gc := &n.gc
	if len(gc.payload) == 0 {
		gc.payload = res.Effects // the engine never writes to it again
	} else {
		gc.payload = append(gc.payload, res.Effects...)
	}
	t.val = res.Reply
	if gc.open == nil {
		gc.open = &issuedEntry{data: true}
	}
	gc.open.writes = append(gc.open.writes, t)
	n.hazards.note(res.Keys, n.entries+1)
	if n.shouldFlush() {
		n.flushPending()
	}
}

// infoText renders the INFO reply: the per-node view the monitoring
// service polls every few seconds (§5.1). It runs on the workloop, which
// owns the keyspace counters it sums; everything else it reads is atomic
// or mu-guarded.
func (n *Node) infoText() string {
	n.mu.Lock()
	role := n.role
	epoch := n.epoch
	stalled := n.stalled
	n.mu.Unlock()
	st := n.stats.Snapshot()
	logStats := n.cfg.Log.Stats()
	degraded := n.cfg.Log.Degraded()
	db := n.eng.DB()
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
	fmt.Fprintf(&b, "barrier_ops:%d\r\n", st.BarrierOps)
	fmt.Fprintf(&b, "queue_depth:%d\r\n", n.QueueDepth())
	fmt.Fprintf(&b, "# Keyspace\r\n")
	fmt.Fprintf(&b, "keys:%d\r\n", db.Len())
	fmt.Fprintf(&b, "used_bytes:%d\r\n", db.UsedBytes())
	b.WriteString(n.obsInfoSections())
	return b.String()
}

// renew appends a lease renewal (primary only). The append is pipelined
// like any other and the lease extends from issue time — safe because the
// backoff replicas observe is strictly longer than the lease.
func (n *Node) renew() {
	n.mu.Lock()
	role := n.role
	lease := n.lease
	epoch := n.epoch
	n.mu.Unlock()
	if role != election.RolePrimary || lease == nil {
		return
	}
	if !lease.Valid() {
		n.demote()
		return
	}
	// Flush buffered mutations first so the log order of entries matches
	// workloop execution order.
	if !n.flushPending() {
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
	if n.sequence(txlog.Entry{Type: txlog.EntryLease, Payload: election.EncodeRenewal(r)}, &n.stats.RenewalsRetried, &issuedEntry{}) != nil {
		// Fenced by another writer, or the lease expired while the retry
		// loop was absorbing an outage: the sequencer stepped down.
		return
	}
	lease.Renewed(issued)
}

// sweep runs one active-expiry cycle on the primary, replicating
// deterministic DELs for the reaped keys through the group-commit buffer,
// so per-key order between a SET and its expiry DEL is preserved. The
// engine resumes each cycle at the part after the one the last stopped
// in, so a part that always holds more expired keys than one cycle reaps
// cannot starve the rest.
func (n *Node) sweep() {
	if n.Role() != election.RolePrimary {
		return
	}
	if res := n.eng.SweepExpired(sweepLimit); res.Mutated() {
		n.logMutation(&task{}, res)
	}
}

// sweepLimit caps the keys one active-expiry cycle reaps.
const sweepLimit = 32

// demote moves a primary to the demoted role, fails every reply it
// withholds, and sets roleChanged: at the end of the turn the workloop
// quarantines it, and it resyncs and rejoins as a replica (roles.go).
// Workloop only.
func (n *Node) demote() {
	n.mu.Lock()
	if n.role != election.RolePrimary {
		n.mu.Unlock()
		return
	}
	n.role = election.RoleDemoted
	n.lease = nil
	n.changedLocked()
	epoch := n.epoch
	n.mu.Unlock()
	failed := n.abortedReplies.Load()
	n.abortHeld(errDemoted)
	if failed = n.abortedReplies.Load() - failed; failed > 0 {
		n.flight.Recordf(trace.EvAbort, uint64(failed), "aborted %d gated replies on step-down", failed)
	}
	n.stats.Demotions.Add(1)
	n.flight.Record(trace.EvDemotion, epoch, "lease lost or fenced")
	n.roleChanged = true
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
