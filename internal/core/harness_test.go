package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/election"
	"memorydb/internal/engine"
	"memorydb/internal/faultpoint"
	"memorydb/internal/resp"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// The step harness drives a primary and, when asked, a replica of one log
// from the test's goroutine. It calls the Node.step the workloop calls, but
// chooses each input itself where the workloop would wait in next, so "the
// entry is still in flight" is a state the test holds, not a time it hopes
// for. Nothing it runs waits on the wall clock:
//   - each node runs on a stepClock, whose Sleep advances it, so the retry
//     backoff inside a step returns at once with the time gone by;
//   - the log runs on a simulated clock of its own that only commitHead
//     moves: an append commits inside the Advance that reaches its due
//     time, so the log has answered for it once commitHead returns;
//   - the one step that waits on a commit, a campaign, runs while the log
//     commits at once, inside StartAppend: the primary's in setup, the
//     replica's in failover.
//
// A harness owns its log service and starts no goroutine, so one that is
// no longer in use is garbage, whatever it left in flight.
//
// After every input checkTurn asserts the workloop's invariants on each
// node, and checkStatus those of the status it publishes.

// stepClock is a simulated clock whose Sleep advances it.
type stepClock struct{ *clock.Sim }

func (c stepClock) Sleep(d time.Duration) { c.Advance(d) }

// The harness's timings: an append commits harnessCommit after it is
// issued, plus a nanosecond per harness turn (harnessLatency), and a
// primary holds a harnessLease it renews every harnessRenew.
const (
	harnessCommit = time.Second
	harnessLease  = 20 * time.Second
	harnessRenew  = 10 * time.Second
)

// harnessLatency is the log's commit latency: none while the harness sets
// up or a failover campaigns, so the claim commits at once, else
// harnessCommit plus a nanosecond per turn, so the appends of a later turn
// commit later and commitHead can commit one turn's appends alone.
type harnessLatency struct{ h *harness }

func (l harnessLatency) Sample() time.Duration {
	if *l.h.turns == 0 || l.h.campaigning {
		return 0
	}
	return harnessCommit + time.Duration(*l.h.turns)
}

// hnode is a node the harness steps, its clock, and the status it had
// published at the end of the last turn.
type hnode struct {
	*Node
	clk  *clock.Sim
	seen *status
}

// call is one command the harness submitted and what came back for it.
type call struct {
	t  *task
	on *hnode
	// sent and answered are the harness turns of the submit and of the
	// first reply; replies counts every reply delivered.
	sent, answered int
	replies        int
	val            resp.Value
	// p is the append that carried the write, once it was issued.
	p *txlog.Pending
}

type harnessConfig struct {
	replica bool
	// faults is every node's registry, and the log service's when the
	// harness builds its own.
	faults *faultpoint.Registry
	noObs  bool
	// ackOnExecute puts every node on the Redis rule (Config.AckOnExecute).
	ackOnExecute bool
}

type harness struct {
	t      testing.TB
	log    *txlog.Log
	logClk *clock.Sim
	// primary leads from setup on; replica, when configured, follows.
	primary, replica *hnode
	// due is when each issued append commits on logClk.
	due   map[*txlog.Pending]time.Time
	calls []*call
	turns *int
	// campaigning is set while failover's campaign runs.
	campaigning bool
	// fail reports a violated invariant; it defaults to t.Fatalf.
	fail func(format string, args ...any)
}

// newHarness builds a log, a primary that has won its lease and, when
// cfg.replica is set, a replica that has drained the log.
func newHarness(t testing.TB, cfg harnessConfig) *harness {
	t.Helper()
	h := &harness{t: t, logClk: clock.NewSim(time.Unix(1700000000, 0)), due: make(map[*txlog.Pending]time.Time), turns: new(int), fail: t.Fatalf}
	svc := txlog.NewService(txlog.Config{Clock: h.logClk, CommitLatency: harnessLatency{h}, Faults: cfg.faults})
	h.log, _ = svc.CreateLog("shard")
	h.primary = h.node("node-a", cfg)
	h.primary.restore()
	h.primary.step(input{kind: inReady}) // the pristine log's first tailer campaigns
	if h.primary.Role() != election.RolePrimary {
		t.Fatalf("the primary did not win the lease: %v", h.primary.Role())
	}
	if cfg.replica {
		h.replica = h.node("node-b", cfg)
		h.replica.restore()
		h.replica.step(input{kind: inReady})
	}
	h.settle()
	return h
}

func (h *harness) node(id string, cfg harnessConfig) *hnode {
	clk := clock.NewSim(time.Unix(1700000000, 0))
	n, err := NewNode(Config{
		NodeID: id, ShardID: h.log.ShardID(), Log: h.log, Clock: stepClock{clk},
		Lease: harnessLease, Backoff: harnessLease + harnessLease/4, RenewEvery: harnessRenew,
		Faults: cfg.faults, NoObs: cfg.noObs, RetrySeed: 1, AckOnExecute: cfg.ackOnExecute,
		// A harness run records a few dozen events, and the default ring
		// of 512 is a fifth of what a node costs the explorer's replays.
		Flight: trace.NewFlight(id, 64),
	})
	if err != nil {
		h.t.Fatal(err)
	}
	return &hnode{Node: n, clk: clk, seen: n.st.Load()}
}

func (h *harness) nodes() []*hnode {
	if h.replica == nil {
		return []*hnode{h.primary}
	}
	return []*hnode{h.primary, h.replica}
}

// turn runs one workloop turn of hn on in, as the workloop would after
// next returned it; a frozen node's workloop waits at its gate instead.
func (h *harness) turn(hn *hnode, in input) {
	if !hn.Frozen() {
		hn.step(in)
	}
	h.settle()
}

// settle ends a harness turn: it stamps the due time of every append the
// turn issued, collects the replies and checks every node and its status.
func (h *harness) settle() {
	for _, hn := range h.nodes() {
		for _, e := range hn.issued {
			if _, ok := h.due[e.p]; !ok {
				h.due[e.p] = h.logClk.Now().Add(harnessLatency{h}.Sample())
			}
			for _, w := range e.writes {
				for _, c := range h.calls {
					if c.t == w {
						c.p = e.p
					}
				}
			}
		}
	}
	*h.turns++
	for _, c := range h.calls {
		for more := true; more; {
			select {
			case <-c.t.done:
				if c.replies++; c.replies == 1 {
					c.val, c.answered = c.t.val, *h.turns
				}
				if c.on.Frozen() {
					h.fail("turn %d: frozen %s answered %s with %v", *h.turns, c.on.ID(), c.t.name, c.t.val)
				}
			default:
				more = false
			}
		}
	}
	for _, hn := range h.nodes() {
		if err := hn.checkTurn(h.log); err != nil {
			h.fail("turn %d, %s: %v", *h.turns, hn.ID(), err)
		}
		if err := hn.checkStatus(); err != nil {
			h.fail("turn %d, %s: %v", *h.turns, hn.ID(), err)
		}
	}
}

// checkStatus reports the first invariant of hn's published status that
// did not hold across the turn, then keeps the status for the next one:
//   - the epoch never falls;
//   - no change goes unannounced: if any field differs, the Changed
//     channel a caller took before the turn is closed.
func (hn *hnode) checkStatus() error {
	was, now := hn.seen, hn.st.Load()
	hn.seen = now
	if now.epoch < was.epoch {
		return fmt.Errorf("epoch fell from %d to %d", was.epoch, now.epoch)
	}
	before, after := *was, *now
	before.changed, after.changed = nil, nil
	if before != after {
		select {
		case <-was.changed:
		default:
			return fmt.Errorf("status went from %+v to %+v, and Changed is still open", before, after)
		}
	}
	return nil
}

// submit hands hn a client command, as a task taken off its queue. A
// readonly one is a replica read at ReadLinearizable.
func (h *harness) submit(hn *hnode, readonly bool, args ...string) *call {
	c := h.newCall(hn, readonly, args)
	h.turn(hn, input{kind: inTask, t: c.t})
	return c
}

// run hands hn the commands as one run, taken off its queue in one turn,
// as a connection hands over the pipeline it drained.
func (h *harness) run(hn *hnode, cmds ...[]string) []*call {
	calls := h.queueRun(hn, cmds...)
	h.take(hn)
	return calls
}

// queueRun puts the commands on hn's queue as one run, as a connection
// hands over the pipeline it drained while the workloop was busy: the next
// task turn takes it, or drains it behind its own input.
func (h *harness) queueRun(hn *hnode, cmds ...[]string) []*call {
	calls := make([]*call, len(cmds))
	for i, args := range cmds {
		calls[i] = h.newCall(hn, false, args)
		if i > 0 {
			calls[i-1].t.next = calls[i].t
		}
	}
	hn.tasks <- calls[0].t
	return calls
}

// queue puts a client command on hn's queue as a run of one.
func (h *harness) queue(hn *hnode, args ...string) *call { return h.queueRun(hn, args)[0] }

// queueFunc puts node-internal work on hn's queue, as Node.run hands it
// over.
func (h *harness) queueFunc(hn *hnode, fn func() error) *task {
	t := &task{kind: taskFunc, fn: fn, done: make(chan struct{}, 1)}
	hn.tasks <- t
	return t
}

// take is hn's turn on the oldest task on its queue: it drains the rest.
func (h *harness) take(hn *hnode) { h.turn(hn, input{kind: inTask, t: <-hn.tasks}) }

// submitBatch hands hn an atomic MULTI/EXEC group, as a task taken off its
// queue. A readonly one is a replica read at ReadEventual, which a replica
// serves from whatever it has applied.
func (h *harness) submitBatch(hn *hnode, readonly bool, cmds ...[]string) *call {
	t := &task{kind: taskBatch, readonly: readonly, opts: ReadOpts{Consistency: ReadEventual}}
	for _, args := range cmds {
		t.batch = append(t.batch, argvOf(args))
	}
	c := h.newTask(hn, t)
	h.turn(hn, input{kind: inTask, t: c.t})
	return c
}

// newCall readies a client command for hn as the next turn's.
func (h *harness) newCall(hn *hnode, readonly bool, args []string) *call {
	return h.newTask(hn, &task{kind: taskCmd, argv: argvOf(args), readonly: readonly})
}

func argvOf(args []string) [][]byte {
	argv := make([][]byte, len(args))
	for i, a := range args {
		argv[i] = []byte(a)
	}
	return argv
}

// newTask readies t for hn as the next turn's.
func (h *harness) newTask(hn *hnode, t *task) *call {
	// Room for two replies, so a second one is counted, not blocked on.
	t.done = make(chan struct{}, 2)
	t.resolve()
	c := &call{t: t, on: hn, sent: *h.turns + 1}
	h.calls = append(h.calls, c)
	return c
}

// do submits a command to the primary.
func (h *harness) do(args ...string) *call { return h.submit(h.primary, false, args...) }

// head is the primary's oldest append the log has yet to answer for.
func (h *harness) head() *issuedEntry {
	if len(h.primary.issued) == 0 {
		h.t.Fatal("no append in flight")
	}
	return h.primary.issued[0]
}

// commitHead lets the log commit the primary's oldest append, and with it
// every append issued in the same turn: the Advance to their due time
// commits them before it returns.
func (h *harness) commitHead() {
	if d := h.due[h.head().p].Sub(h.logClk.Now()); d > 0 {
		h.logClk.Advance(d)
	}
	h.settle()
}

// answer is the primary's turn on its answered head.
func (h *harness) answer() { h.turn(h.primary, input{kind: inHead}) }

// commit commits the primary's head and has the primary answer for it.
func (h *harness) commit() {
	h.commitHead()
	h.answer()
}

// failHead truncates every append in flight as the log service's restart
// pass drops a torn tail: the log answers for each with ErrTruncated.
func (h *harness) failHead() int {
	_, truncated := h.log.RecoverChain()
	h.settle()
	return truncated
}

// expire runs the primary's lease out and fires its role timer: the
// renewal finds the lease gone and the node steps down.
func (h *harness) expire() {
	h.primary.clk.Advance(harnessLease)
	h.turn(h.primary, input{kind: inRoleTimer})
}

// tick fires the primary's role timer at its renewal time.
func (h *harness) tick() {
	h.primary.clk.Advance(harnessRenew)
	h.turn(h.primary, input{kind: inRoleTimer})
}

// apply is the replica's tailer turn: it applies the next committed entry.
func (h *harness) apply() { h.turn(h.replica, input{kind: inReady}) }

// failover has the replica, caught up, win the shard from a primary that
// froze: the replica's backoff runs out and its tailer campaigns.
func (h *harness) failover() {
	h.primary.Freeze()
	h.replica.clk.Advance(harnessLease + harnessLease/4)
	h.campaigning = true
	h.apply()
	h.campaigning = false
	if h.replica.Role() != election.RolePrimary {
		h.t.Fatalf("the replica did not win the shard: %v", h.replica.Role())
	}
}

// fireReadTimer moves hn's clock to its earliest parked deadline and fires
// the read timer.
func (h *harness) fireReadTimer(hn *hnode) {
	for _, p := range hn.parked {
		if !p.deadline.IsZero() {
			if d := p.deadline.Sub(hn.clk.Now()); d > 0 {
				hn.clk.Advance(d)
			}
			break
		}
	}
	h.turn(hn, input{kind: inReadTimer})
}

// reply returns c's reply once one was delivered.
func (c *call) reply() (resp.Value, bool) { return c.val, c.replies > 0 }

// mustReply fails the test unless c was answered with a reply whose text
// is want (any reply when want is "").
func (h *harness) mustReply(c *call, want string) resp.Value {
	h.t.Helper()
	v, ok := c.reply()
	switch {
	case !ok:
		h.t.Fatalf("%s is unanswered", c.t.name)
	case want != "" && v.Text() != want:
		h.t.Fatalf("%s = %v, want %q", c.t.name, v, want)
	}
	return v
}

// mustWait fails the test if c was answered.
func (h *harness) mustWait(c *call) {
	h.t.Helper()
	if v, ok := c.reply(); ok {
		h.t.Fatalf("%s answered %v while its reply should be withheld", c.t.name, v)
	}
}

// checkTurn reports the first invariant of the workloop's state that does
// not hold between two turns:
//   - the group-commit buffer is empty: every turn flushed what it wrote;
//   - the FIFO of issued appends is in log order;
//   - the durable watermark is no newer than the log's committed tail;
//   - every unanswered write's keys name its entry, or a newer one, in the
//     hazard index;
//   - the parked reads are in deadline order, with the read timer armed;
//   - no task is held twice: by two entries, or by an entry and the parked
//     list;
//   - a demoted node holds no reply;
//   - a primary holds a lease.
func (n *Node) checkTurn(log *txlog.Log) error {
	if n.gc.open != nil || len(n.gc.payload) > 0 {
		return fmt.Errorf("the group-commit buffer holds %d bytes across turns", len(n.gc.payload))
	}
	var last uint64
	for _, e := range n.issued {
		if seq := e.p.ID().Seq; seq <= last {
			return fmt.Errorf("the FIFO holds e%d after e%d", seq, last)
		}
		last = e.p.ID().Seq
	}
	if tail := log.CommittedTail().Seq; n.durable > tail {
		return fmt.Errorf("durable watermark %d past the committed tail %d", n.durable, tail)
	}
	held := make(map[*task]string)
	hold := func(t *task, where string) error {
		if w, ok := held[t]; ok {
			return fmt.Errorf("%s held by %s and by %s", t.name, w, where)
		}
		held[t] = where
		return nil
	}
	entry := func(e *issuedEntry, ord uint64) error {
		where := fmt.Sprintf("entry %d", ord)
		for _, w := range e.writes {
			if err := hold(w, where); err != nil {
				return err
			}
			for _, k := range w.keys {
				if o, ok := n.hazards.m[string(k)]; !ok || o < ord {
					return fmt.Errorf("%s's hazard on %q names entry %d, older than its own %d", w.name, k, o, ord)
				}
			}
		}
		for _, r := range e.reads {
			if err := hold(r, where); err != nil {
				return err
			}
		}
		return nil
	}
	first := n.unanswered()
	for i, e := range n.issued {
		if err := entry(e, first+uint64(i)); err != nil {
			return err
		}
	}
	byEntries := len(held)
	if byEntries > 0 && n.Role() == election.RoleDemoted {
		return fmt.Errorf("demoted, yet its entries hold %d replies", byEntries)
	}
	if n.Role() == election.RolePrimary && n.lease == nil {
		return fmt.Errorf("primary without a lease")
	}
	var deadline time.Time
	for _, p := range n.parked {
		if err := hold(p.t, "the parked list"); err != nil {
			return err
		}
		if p.deadline.IsZero() {
			continue
		}
		if p.deadline.Before(deadline) {
			return fmt.Errorf("parked deadline %v after %v", p.deadline, deadline)
		}
		deadline = p.deadline
	}
	if !deadline.IsZero() && n.readTimer == nil {
		return fmt.Errorf("reads parked with deadlines, read timer disarmed")
	}
	return nil
}

// holds reports whether one of n's entries or its parked list holds t.
func (n *Node) holds(t *task) bool {
	in := func(ts []*task) bool {
		for _, x := range ts {
			if x == t {
				return true
			}
		}
		return false
	}
	for _, e := range n.issued {
		if in(e.writes) || in(e.reads) {
			return true
		}
	}
	for _, p := range n.parked {
		if p.t == t {
			return true
		}
	}
	return false
}

// get reads key off n's engine without a command, for a test's own view.
func (n *Node) get(key string) string {
	return n.eng.ExecCommand(engine.Lookup("GET"), [][]byte{[]byte("GET"), []byte(key)}).Reply.Text()
}

// info is INFO's text as n renders it.
func (h *harness) info(hn *hnode) string {
	c := h.submit(hn, false, "INFO")
	return strings.ReplaceAll(h.mustReply(c, "").Text(), "\r\n", "\n")
}
