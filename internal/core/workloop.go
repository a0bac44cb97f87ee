package core

import (
	"context"
	"fmt"
	"runtime"
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
	// control append, a step-down or a slot dump.
	taskFunc
	// taskWait is a WaitApplied: fn parks it beside the replica's parked
	// reads, and the end of a turn answers it (readpath.go).
	taskWait
)

type task struct {
	kind     taskKind
	readonly bool // client opted into replica reads (READONLY)
	// opts is a readonly read's declared consistency and outcome the rung
	// of the replica read ladder that answers it, set on the workloop
	// (readpath.go): a replica serves a readonly read only once the ladder
	// cleared it, so stale data is never silently returned as consistent.
	// outcome is a byte beside kind, which keeps a task in 288 bytes.
	outcome ReadOutcome
	opts    ReadOpts
	argv    [][]byte
	batch   [][][]byte

	// The task is its own reply future: Node.reply writes val, then signals
	// done (one slot, one send; nil on the expiry sweep's task, which
	// nobody waits for). While a reply is withheld for durability, val
	// parks the value it will carry if the covering entry commits. A
	// taskFunc hands fn's error back in err instead, then signals done, and
	// so does a taskWait with WaitApplied's result once it is answered, and
	// any task send could not queue.
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

	// next is the task after this one in its run (Run), nil at the run's
	// end: the workloop serves a run in one turn.
	next *task
}

// Request is one client command, or, when Batch is set, one atomic
// MULTI/EXEC group: its commands run back to back on the workloop and
// their effects are logged as one record (§2.1). ReadOnly opts a read into
// replica reads (the client issued READONLY) at Opts' consistency. Span,
// when set, is the span context the front end minted for the command, and
// the node's spans for it become its children.
type Request struct {
	Argv     [][]byte
	Batch    [][][]byte
	ReadOnly bool
	Opts     ReadOpts
	Span     trace.SpanContext
}

// Call is a submitted request's reply future: the task the workloop
// answers.
type Call struct {
	n *Node
	t *task
}

// Run is requests handed to the workloop together, as a connection drains
// a pipeline: the workloop serves a run's requests in order in one turn,
// so the writes among them share one log entry. The zero Run is empty; a
// run's first Add names the node it goes to.
type Run struct {
	head, tail *task
	n          *Node
}

// Node returns the node r's requests were added for, nil while r is empty.
func (r *Run) Node() *Node { return r.n }

// Add readies req as r's next request and returns its reply future, which
// is answered once r is submitted and served. A zero req.Span has the node
// draw its own sampling coin.
func (n *Node) Add(r *Run, req Request) Call {
	t := &task{kind: taskCmd, argv: req.Argv, readonly: req.ReadOnly, opts: req.Opts}
	if req.Batch != nil {
		t.kind, t.batch = taskBatch, req.Batch
	}
	t.resolve()
	t.done = make(chan struct{}, 1)
	if n.trace != nil {
		n.traceStart(req.Span, t)
	}
	if r.head == nil {
		r.head, r.n = t, n
	} else {
		r.tail.next = t
	}
	r.tail = t
	return Call{n: n, t: t}
}

// SubmitRun queues r on the workloop without waiting on its replies, and
// empties r. If r cannot be queued, every call in it fails with ctx's
// error or ErrStopped, whichever ended first.
func (n *Node) SubmitRun(ctx context.Context, r *Run) {
	head := r.head
	if head == nil {
		return
	}
	*r = Run{}
	if n.obs != nil {
		now := obs.Now()
		for t := head; t != nil; t = t.next {
			t.enq = now
		}
	}
	n.send(ctx, head)
}

// Submit queues req on the workloop without waiting on its reply: a run of
// one. One workloop takes every run in submit order, so requests submitted
// before any is waited on execute, and are answered, in that order. Writes
// need a primary holding a valid lease; their replies are withheld until
// the transaction log acknowledges durability. A req without a Span
// adopts the span context ctx carries, if any.
func (n *Node) Submit(ctx context.Context, req Request) Call {
	if n.trace != nil && req.Span.TraceID == 0 {
		req.Span, _ = trace.FromContext(ctx)
	}
	var r Run
	c := n.Add(&r, req)
	n.SubmitRun(ctx, &r)
	return c
}

// Wait blocks until the call is answered and returns its reply and the
// rung of the replica read ladder that answered it.
func (c Call) Wait(ctx context.Context) (resp.Value, ReadOutcome, error) {
	if err := c.wait(ctx); err != nil {
		return resp.Value{}, ReadOutcomePrimary, err
	}
	return c.t.val, c.t.outcome, nil
}

// Do executes one command and waits for its reply.
func (n *Node) Do(ctx context.Context, argv [][]byte) (resp.Value, error) {
	v, _, err := n.Submit(ctx, Request{Argv: argv}).Wait(ctx)
	return v, err
}

// DoBatch executes an atomic MULTI/EXEC group and waits for its reply.
func (n *Node) DoBatch(ctx context.Context, cmds [][][]byte) (resp.Value, error) {
	v, _, err := n.Submit(ctx, Request{Batch: cmds}).Wait(ctx)
	return v, err
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

// run executes fn on the workloop and returns its error. Node-internal
// work is a task like any command, so the queue alone serializes it with
// them: no lock, no quiesce.
func (n *Node) run(ctx context.Context, fn func() error) error {
	t := &task{kind: taskFunc, fn: fn, done: make(chan struct{}, 1)}
	n.send(ctx, t)
	return Call{n: n, t: t}.wait(ctx)
}

// send queues t, and the rest of its run, on the workloop. When ctx or the
// node ends first, it fails every task of the run with ctx's error or
// ErrStopped instead.
func (n *Node) send(ctx context.Context, t *task) {
	var err error
	select {
	case n.tasks <- t:
		return
	case <-ctx.Done():
		err = ctx.Err()
	case <-n.stopCtx.Done():
		err = ErrStopped
	}
	for ; t != nil; t = t.next {
		t.err = err
		t.done <- struct{}{}
	}
}

// wait waits for the call's done signal and returns the task's error: a
// taskFunc's, a taskWait's, or the one that kept the task off the queue.
// It fails with ctx's error or ErrStopped when either ends first; the
// workloop may still run the task, so its reply is not the caller's to
// read.
func (c Call) wait(ctx context.Context) error {
	select {
	case <-c.t.done:
		return c.t.err
	case <-ctx.Done():
		return ctx.Err()
	case <-c.n.stopCtx.Done():
		return ErrStopped
	}
}

// workloop is the node's one goroutine (§3: the engine stays
// single-threaded), and its one event loop: it runs every command, every
// piece of node-internal work, the node's lifecycle (roles.go) and reply
// release. It is pipelined for group commit: a turn's writes go out as one
// entry while earlier ones await quorum, and the oldest append's commit
// answers for every committed append. next is its one wait and step its
// body; a test drives the same step from a goroutine of its own, choosing
// each input itself.
func (n *Node) workloop() {
	defer n.wg.Done()
	n.restore() // bootstrap: restore state before tailing
	for {
		in, ok := n.next()
		// Stopped, or stopped while frozen: the crashed process is being
		// torn down. Drop the input without acting on it — exactly what a
		// dead process does; submit's stopCtx select fails the caller.
		if !ok || !n.gate() {
			return
		}
		n.step(in)
	}
}

// input is what woke the workloop: a value, so taking one allocates
// nothing.
type input struct {
	kind inputKind
	t    *task // inTask's task
}

type inputKind uint8

const (
	inTask      inputKind = iota // a task off the queue
	inHead                       // the log answered for the FIFO's head
	inReady                      // the tailer may have entries to apply
	inRoleTimer                  // the role timer fired
	inReadTimer                  // the read timer fired
)

// next waits for the workloop's next input, false once the node stopped.
// Go's select picks among the ready cases at random, so a lagging tailer
// and the clients take turns.
func (n *Node) next() (input, bool) {
	var head <-chan struct{} // nil, never ready, while nothing is in flight
	if len(n.issued) > 0 {
		head = n.issued[0].p.Done()
	}
	select {
	case <-n.stopCtx.Done():
		return input{}, false
	case t := <-n.tasks:
		return input{kind: inTask, t: t}, true
	case <-head:
		return input{kind: inHead}, true
	case <-n.life.ready:
		return input{kind: inReady}, true
	case <-n.life.timer:
		return input{kind: inRoleTimer}, true
	case <-n.readTimer:
		return input{kind: inReadTimer}, true
	}
}

// step is one turn of the workloop: it acts on in — a whole run, when in
// is one, and then the tasks queued behind it — then flushes the turn's
// writes, handles the turn's step-down and answers the parked tasks the
// turn can answer.
func (n *Node) step(in input) {
	switch in.kind {
	case inTask:
		if !n.drain(in.t) {
			return // stopped while frozen: act no further, as workloop does
		}
	case inHead:
		n.runCompleted()
	case inReady:
		n.tail()
	case inRoleTimer:
		n.life.timer = nil
		n.roleTimer()
	case inReadTimer:
		n.readTimer = nil // unpark degrades the expired reads
	}
	// The writes of one turn share one entry, and it goes out as the turn
	// ends: between turns the group-commit buffer is empty.
	n.flushPending()
	if n.roleChanged {
		n.roleChanged = false
		n.roleChangedStep()
	}
	if len(n.parked) > 0 {
		n.unpark()
	}
}

// drain serves t, then the tasks queued behind it, until the queue is
// empty or the turn has served maxBatchRecords commands, one entry's worth.
// A lone write brings no batch of its own: while another write's entry is
// still committing it yields first, so ready connections queue theirs into
// its entry, a few microseconds beside the commit ahead. A pipeline brings
// its own batch. Each task passes the crash gate: false means the node was
// stopped while frozen.
func (n *Node) drain(t *task) bool {
	served := n.serveTask(t)
	if served == 1 && n.gc.pending() && len(n.issued) > 0 && n.issued[0].data {
		select {
		case <-n.issued[0].p.Done(): // the log keeps up: nothing to batch for
		default:
			runtime.Gosched()
		}
	}
	for served < maxBatchRecords {
		select {
		case t = <-n.tasks:
		default:
			return true
		}
		if !n.gate() {
			return false
		}
		served += n.serveTask(t)
	}
	return true
}

// serveTask acts on a task taken off the queue — node-internal work, a
// WaitApplied, or a client run, in order — and counts the commands served.
func (n *Node) serveTask(t *task) (served int) {
	switch t.kind {
	case taskFunc:
		t.err = t.fn()
		t.done <- struct{}{}
	case taskWait:
		t.fn()
	default:
		for ; t != nil; t = t.next {
			n.handleClient(t)
			served++
		}
		return served
	}
	return 1
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
	st := n.st.Load()
	if n.slotGate != nil && cmd != nil && !local {
		if errReply, rejected := n.slotGate(name, t.keys, cmd.Writes()); rejected {
			n.reply(t, errReply)
			return
		}
	}
	switch st.role {
	case election.RolePrimary:
		if n.lease == nil || !n.lease.Valid() {
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
		case st.stalled:
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
	if st.role == election.RoleReplica {
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
	// everything outstanding. Under the Redis rule only WAIT waits.
	gateAll := name == "WAIT" || (!n.cfg.AckOnExecute && (batch || (t.keys == nil && cmd != nil && cmd.Flags&engine.FlagKeyspace != 0)))
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
// controls what other clients see of it meanwhile. Under the Redis rule
// (Config.AckOnExecute) the reply leaves now and no hazard is noted. A
// buffer that reaches a cap is flushed at once; otherwise the end of the
// turn flushes it (Node.step).
func (n *Node) logMutation(t *task, res engine.Result) {
	n.stats.Mutations.Add(1)
	gc := &n.gc
	if len(gc.payload) == 0 {
		gc.payload = res.Effects // the engine never writes to it again
	} else {
		gc.payload = append(gc.payload, res.Effects...)
	}
	if gc.open == nil {
		gc.open = &issuedEntry{data: true}
	}
	gc.open.records++
	if n.cfg.AckOnExecute {
		n.reply(t, res.Reply)
	} else {
		t.val = res.Reply
		gc.open.writes = append(gc.open.writes, t)
		n.hazards.note(res.Keys, n.entries+1)
	}
	if gc.open.records >= maxBatchRecords || len(gc.payload) >= maxBatchBytes {
		n.flushPending()
	}
}

// infoText renders the INFO reply: the per-node view the monitoring
// service polls every few seconds (§5.1). It runs on the workloop, which
// owns the keyspace counters it sums; everything else it reads is atomic
// or the published status.
func (n *Node) infoText() string {
	view := n.st.Load()
	db := n.eng.DB()
	var b strings.Builder
	fmt.Fprintf(&b, "# Replication\r\n")
	fmt.Fprintf(&b, "role:%s\r\n", view.role)
	fmt.Fprintf(&b, "epoch:%d\r\n", view.epoch)
	fmt.Fprintf(&b, "applied_seq:%d\r\n", n.appliedSeq.Load())
	fmt.Fprintf(&b, "log_committed_seq:%d\r\n", n.cfg.Log.CommittedTail().Seq)
	fmt.Fprintf(&b, "upgrade_stalled:%v\r\n", view.stalled)
	fmt.Fprintf(&b, "engine_version:%d\r\n", n.cfg.EngineVersion)
	n.infoSignals(&b, secStats)
	n.infoSignals(&b, secGroupCommit)
	if flushes := n.stats.BatchFlushes.Load(); flushes > 0 {
		fmt.Fprintf(&b, "mean_records_per_entry:%.2f\r\n", float64(n.stats.BatchedRecords.Load())/float64(flushes))
	}
	n.infoSignals(&b, secRobustness)
	fmt.Fprintf(&b, "log_degraded:%v\r\n", n.cfg.Log.Degraded())
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
	st, lease := n.st.Load(), n.lease
	if st.role != election.RolePrimary || lease == nil {
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
	r := election.Renewal{NodeID: n.cfg.NodeID, Epoch: st.epoch, LeaseMs: n.cfg.Lease.Milliseconds()}
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
	if n.Role() != election.RolePrimary {
		return
	}
	n.lease = nil
	n.publish(func(s *status) { s.role = election.RoleDemoted })
	failed := n.abortedReplies.Load()
	n.abortHeld(errDemoted)
	if failed = n.abortedReplies.Load() - failed; failed > 0 {
		n.flight.Recordf(trace.EvAbort, uint64(failed), "aborted %d gated replies on step-down", failed)
	}
	n.stats.Demotions.Add(1)
	n.flight.Record(trace.EvDemotion, n.Epoch(), "lease lost or fenced")
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
