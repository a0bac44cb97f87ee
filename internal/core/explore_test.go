package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"memorydb/internal/faultpoint"
	"memorydb/internal/lin"
	"memorydb/internal/txlog"
)

// The explorer searches the inputs the step harness can give a primary and
// a replica of one log, depth first to exploreDepth inputs, and prunes a
// state it has already explored as deeply. After every input it checks
// what the node promises its clients:
//   - every reply is delivered once, and none by a frozen node;
//   - a reply is never delivered before the entry of every write it
//     observed has committed;
//   - a call not yet answered is held by its node: an entry or the parked
//     list;
//   - the history is linearizable (internal/lin);
//
// and, through the harness, checkTurn's invariants. A state is replayed
// from a fresh harness: nodes are not copied. A harness starts no
// goroutine, so a replay it is done with is garbage, and the search is
// bounded by time, not memory.

// exploreDepth is how many inputs the explorer takes along a path.
const exploreDepth = 5

// exKeys are the keys the explorer's clients use, and exClients how many
// calls can be in flight at once.
var exKeys = []string{"a", "b"}

const exClients = 3

// exOp is a command a client can send: to the primary, or to the replica
// as a readonly read.
type exOp struct {
	replica bool
	args    []string // "$" stands for the client's value
	keys    []string
	write   bool
	all     bool // reads the whole keyspace
}

var exOps = []exOp{
	{args: []string{"SET", "a", "$"}, keys: []string{"a"}, write: true},
	{args: []string{"GET", "a"}, keys: []string{"a"}},
	{args: []string{"MSET", "a", "$", "b", "$"}, keys: []string{"a", "b"}, write: true},
	{args: []string{"GET", "b"}, keys: []string{"b"}},
	{args: []string{"DBSIZE"}, all: true},
	{replica: true, args: []string{"GET", "a"}, keys: []string{"a"}},
}

// exRunOps are the commands two free clients send the primary in one
// input: exOps[exRunOps[0]] and exOps[exRunOps[1]] together, as one run (a
// connection hands over a pipeline) or as two runs queued while the
// workloop is busy, which its next turn drains.
var exRunOps = [2]int{0, 1} // SET a, GET a

// exKind is one kind of input the explorer gives.
type exKind uint8

const (
	exSubmit    exKind = iota // a free client sends exOps[op]
	exPipe                    // two free clients send exRunOps as one run
	exCommit                  // the log commits the primary's head
	exFail                    // the log truncates every append in flight
	exAnswer                  // the primary's turn on its answered head
	exTick                    // the primary's role timer: a renewal
	exDemote                  // the primary's lease runs out at its role timer
	exApply                   // the replica's tailer turn
	exReadTimer               // the replica's read timer
	exFreeze                  // node freezes
	exThaw                    // node thaws
	exLose                    // the primary's next flush is lost at core.flush.pre
	exStepDown                // StepDown's first turn: the lease-release entry
	exStepDone                // StepDown's second turn, once the log answered
	exQueue                   // two free clients queue exRunOps as two runs; one turn takes both
)

type exAct struct {
	kind exKind
	op   int // exSubmit's op
	node int // exFreeze's and exThaw's node: 0 the primary, 1 the replica
	// ahead is set on a StepDown turn that a free client's SET a, queued
	// ahead of it, shares: the write is the turn's input, and the StepDown's
	// work drained behind it.
	ahead bool
}

func (a exAct) String() string {
	names := []string{"submit", "run", "commit head", "fail head", "answer head", "tick", "demote", "apply", "read timer", "freeze", "thaw",
		"lose the next flush", "step down", "step-down demotes", "queue"}
	switch a.kind {
	case exSubmit:
		op := exOps[a.op]
		on := "primary"
		if op.replica {
			on = "replica"
		}
		return fmt.Sprintf("%s to the %s", strings.Join(op.args, " "), on)
	case exPipe:
		return fmt.Sprintf("run [%s, %s] to the primary", strings.Join(exOps[exRunOps[0]].args, " "), strings.Join(exOps[exRunOps[1]].args, " "))
	case exQueue:
		return fmt.Sprintf("[%s] and [%s] queued to the primary", strings.Join(exOps[exRunOps[0]].args, " "), strings.Join(exOps[exRunOps[1]].args, " "))
	case exFreeze, exThaw:
		return fmt.Sprintf("%s %s", names[a.kind], []string{"primary", "replica"}[a.node])
	}
	if a.ahead {
		return fmt.Sprintf("%s, behind SET a queued ahead of it", names[a.kind])
	}
	return names[a.kind]
}

// exCall is a client's call and the op it sent.
type exCall struct {
	*call
	client  int
	op      exOp
	value   string
	checked bool // its reply passed the commit check
}

// exRun is one path of the search on a harness of its own.
type exRun struct {
	h     *harness
	calls []*exCall
	fault string // the first violation, "" while none
	// faults is the harness's registry; lose is its core.flush.pre hit
	// count when exLose armed it, -1 while it is not armed.
	faults *faultpoint.Registry
	lose   int64
	sd     *exStepping
}

// exStepping is a StepDown the primary was given: the log's answer for its
// lease-release entry, once heard, and whether its demotion turn ran.
type exStepping struct {
	answered       chan error
	err            error // the first turn's error, else the log's answer
	heard, demoted bool
}

func newExRun(t testing.TB) *exRun {
	r := &exRun{faults: faultpoint.New(1), lose: -1}
	r.h = newHarness(t, harnessConfig{replica: true, noObs: true, faults: r.faults})
	r.h.fail = func(format string, args ...any) {
		if r.fault == "" {
			r.fault = fmt.Sprintf(format, args...)
		}
	}
	return r
}

func (r *exRun) hn(i int) *hnode { return r.h.nodes()[i] }

// to is the node op goes to.
func (r *exRun) to(op exOp) *hnode {
	if op.replica {
		return r.h.replica
	}
	return r.h.primary
}

// freeClients lists the clients with no call in flight, lowest first.
func (r *exRun) freeClients() []int {
	busy := make([]bool, exClients)
	for _, c := range r.calls {
		if c.replies == 0 {
			busy[c.client] = true
		}
	}
	var free []int
	for i, b := range busy {
		if !b {
			free = append(free, i)
		}
	}
	return free
}

// enabled lists the inputs the explorer may give next, in a fixed order.
func (r *exRun) enabled() []exAct {
	var acts []exAct
	p, rep := r.h.primary, r.h.replica
	free := len(r.freeClients())
	if free > 0 {
		for i, op := range exOps {
			if !r.to(op).Frozen() {
				acts = append(acts, exAct{kind: exSubmit, op: i})
			}
		}
	}
	if free > 1 && !p.Frozen() {
		acts = append(acts, exAct{kind: exPipe}, exAct{kind: exQueue})
	}
	if len(p.issued) > 0 {
		if !done(p.issued[0].p) {
			acts = append(acts, exAct{kind: exCommit})
		} else if !p.Frozen() {
			acts = append(acts, exAct{kind: exAnswer})
		}
	}
	if r.h.log.AssignedTail().Seq > r.h.log.CommittedTail().Seq {
		acts = append(acts, exAct{kind: exFail})
	}
	if !p.Frozen() && p.life.phase == phaseLead {
		acts = append(acts, exAct{kind: exTick}, exAct{kind: exDemote})
	}
	if !rep.Frozen() && rep.applied.Seq < r.h.log.CommittedTail().Seq {
		acts = append(acts, exAct{kind: exApply})
	}
	if rep.readTimer != nil {
		acts = append(acts, exAct{kind: exReadTimer})
	}
	for i, hn := range r.h.nodes() {
		if hn.Frozen() {
			acts = append(acts, exAct{kind: exThaw, node: i})
		} else if !r.h.primary.Frozen() && !r.h.replica.Frozen() {
			acts = append(acts, exAct{kind: exFreeze, node: i})
		}
	}
	if !p.Frozen() && p.life.phase == phaseLead {
		if r.lose < 0 {
			acts = append(acts, exAct{kind: exLose})
		}
		if r.sd == nil {
			acts = append(acts, exAct{kind: exStepDown})
			if free > 0 {
				acts = append(acts, exAct{kind: exStepDown, ahead: true})
			}
		}
	}
	if sd := r.sd; sd != nil && sd.heard && sd.err == nil && !sd.demoted && !p.Frozen() {
		acts = append(acts, exAct{kind: exStepDone})
		if free > 0 {
			acts = append(acts, exAct{kind: exStepDone, ahead: true})
		}
	}
	return acts
}

func done(p *txlog.Pending) bool {
	select {
	case <-p.Done():
		return true
	default:
		return false
	}
}

// run gives the input a, then checks the run.
func (r *exRun) run(a exAct) {
	h := r.h
	switch a.kind {
	case exSubmit:
		op := exOps[a.op]
		client := r.freeClients()[0]
		c := h.submit(r.to(op), op.replica, exArgs(op, client)...)
		r.calls = append(r.calls, &exCall{call: c, client: client, op: op, value: exValue(client)})
	case exPipe, exQueue:
		free := r.freeClients()
		ops := [2]exOp{exOps[exRunOps[0]], exOps[exRunOps[1]]}
		var calls []*call
		if a.kind == exPipe {
			calls = h.run(h.primary, exArgs(ops[0], free[0]), exArgs(ops[1], free[1]))
		} else {
			calls = []*call{h.queue(h.primary, exArgs(ops[0], free[0])...), h.queue(h.primary, exArgs(ops[1], free[1])...)}
			h.take(h.primary)
		}
		for i, c := range calls {
			r.calls = append(r.calls, &exCall{call: c, client: free[i], op: ops[i], value: exValue(free[i])})
		}
	case exCommit:
		h.commitHead()
	case exFail:
		h.failHead()
	case exAnswer:
		h.answer()
	case exTick:
		h.tick()
	case exDemote:
		h.expire()
	case exApply:
		h.apply()
	case exReadTimer:
		h.fireReadTimer(h.replica)
	case exFreeze:
		r.hn(a.node).Freeze()
		h.settle()
	case exThaw:
		r.hn(a.node).Thaw()
		h.settle()
	case exLose:
		r.lose = r.faults.Hits(faultpoint.SiteFlushPre)
		r.faults.Arm(faultpoint.SiteFlushPre, faultpoint.Error, 0)
	case exStepDown:
		r.sd = &exStepping{answered: make(chan error, 1)}
		e := &issuedEntry{control: r.sd.answered}
		r.sd.err = r.funcTurn(a.ahead, func() error { return h.primary.controlTurn(txlog.EntryControl, LeaseReleasePayload, e) })
		r.sd.heard = r.sd.err != nil
	case exStepDone:
		r.sd.demoted = true
		r.funcTurn(a.ahead, func() error { h.primary.demote(); return nil })
	}
	if r.lose >= 0 && r.faults.Hits(faultpoint.SiteFlushPre) > r.lose {
		r.lose = -1 // the armed flush was lost
	}
	if sd := r.sd; sd != nil && !sd.heard {
		select {
		case sd.err = <-sd.answered:
			sd.heard = true
		default:
		}
	}
	r.check()
}

// funcTurn is the primary's turn on node-internal work, as Node.run hands
// it over; it returns fn's error. With ahead, a free client's SET a is
// queued ahead of the work: the turn takes the write, then drains the
// work, which finds the write in the open buffer.
func (r *exRun) funcTurn(ahead bool, fn func() error) error {
	var c *exCall
	if ahead {
		client, op := r.freeClients()[0], exOps[0]
		c = &exCall{call: r.h.queue(r.h.primary, exArgs(op, client)...), client: client, op: op, value: exValue(client)}
	}
	t := r.h.queueFunc(r.h.primary, fn)
	r.h.take(r.h.primary)
	if c != nil {
		r.calls = append(r.calls, c)
	}
	return t.err
}

// exValue is the value client writes.
func exValue(client int) string { return fmt.Sprintf("v%d", client) }

// exArgs is op as client sends it.
func exArgs(op exOp, client int) []string {
	args := make([]string, len(op.args))
	for i, s := range op.args {
		args[i] = strings.ReplaceAll(s, "$", exValue(client))
	}
	return args
}

// committed reports whether p's entry has committed.
func (r *exRun) committed(p *txlog.Pending) bool {
	if p == nil || !done(p) {
		return false
	}
	_, err := p.Wait(context.Background())
	return err == nil && p.ID().Seq <= r.h.log.CommittedTail().Seq
}

// check records the first promise the run broke.
func (r *exRun) check() {
	for _, c := range r.calls {
		switch {
		case r.fault != "":
			return
		case c.replies > 1:
			r.fault = fmt.Sprintf("%s answered %d times", c.t.name, c.replies)
		case c.replies == 0 && !c.on.holds(c.t):
			r.fault = fmt.Sprintf("%s is unanswered, and its node no longer holds it", c.t.name)
		case c.replies == 1 && !c.checked:
			c.checked = true
			r.checkCommitted(c)
		}
	}
	if r.fault == "" {
		if ok, key := lin.Check(lin.RegisterModel{}, r.history()); !ok {
			r.fault = fmt.Sprintf("the history of %q is not linearizable", key)
		}
	}
}

// checkCommitted faults a reply the primary delivered before the entry of
// a write it observed — its own, one on a key it read, any for a read of
// the whole keyspace — committed.
func (r *exRun) checkCommitted(c *exCall) {
	if c.on != r.h.primary || c.val.IsError() {
		return
	}
	for _, w := range r.calls {
		if w.on != r.h.primary || !w.op.write || w.sent > c.sent || (w.answered == w.sent && w.val.IsError()) {
			continue
		}
		if w != c && !c.op.all && !overlap(w.op.keys, c.op.keys) {
			continue
		}
		if !r.committed(w.p) {
			r.fault = fmt.Sprintf("%s answered %v before %s's entry committed", c.t.name, c.val, strings.Join(w.op.args, " "))
			return
		}
	}
}

func overlap(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// history is the run's calls as a lin history. A write answered with an
// error may still commit later, so it stays open, like an unanswered one;
// a read that failed constrains nothing.
func (r *exRun) history() []lin.Operation {
	const open = 1 << 60
	var ops []lin.Operation
	for _, c := range r.calls {
		failed := c.replies == 0 || c.val.IsError()
		ret := int64(2*c.answered + 1)
		switch {
		case c.op.write:
			if failed {
				ret = open
			}
			for _, k := range c.op.keys {
				ops = append(ops, lin.Operation{ClientID: c.client, Key: k, Input: lin.Input{Kind: "set", Value: c.value},
					Output: lin.Output{Err: failed}, Call: int64(2 * c.sent), Return: ret})
			}
		case !failed && !c.op.all:
			ops = append(ops, lin.Operation{ClientID: c.client, Key: c.op.keys[0], Input: lin.Input{Kind: "get"},
				Output: lin.Output{Value: c.val.Text()}, Call: int64(2 * c.sent), Return: ret})
		}
	}
	return ops
}

// state renders what the run's future depends on: each node's role,
// phase, freeze, positions, keyspace, entries, parked reads and timers,
// the log's tail, and each client's call in flight.
func (r *exRun) state() string {
	var b strings.Builder
	client := make(map[*task]int)
	for _, c := range r.calls {
		client[c.t] = c.client
	}
	tasks := func(ts []*task) {
		for _, t := range ts {
			fmt.Fprintf(&b, "c%d,", client[t])
		}
		b.WriteByte(';')
	}
	for _, hn := range r.h.nodes() {
		fmt.Fprintf(&b, "%v %d %v a%d d%d e%d t%v r%v|", hn.Role(), hn.life.phase, hn.Frozen(),
			hn.applied.Seq, hn.durable, hn.entries, hn.life.timer != nil, hn.readTimer != nil)
		for _, k := range exKeys {
			fmt.Fprintf(&b, "%s=%s,", k, hn.get(k))
		}
		for _, e := range hn.issued {
			fmt.Fprintf(&b, "e%d %v:", e.p.ID().Seq, done(e.p))
			tasks(e.writes)
			tasks(e.reads)
		}
		for _, p := range hn.parked {
			fmt.Fprintf(&b, "parked c%d@%d %v,", client[p.t], p.seq, p.deadline.Sub(hn.clk.Now()))
		}
		if hn.lease != nil {
			fmt.Fprintf(&b, "lease %v", hn.lease.ExpiresAt().Sub(hn.clk.Now()))
		}
		b.WriteString("||")
	}
	fmt.Fprintf(&b, "log %d/%d|lose %v|", r.h.log.CommittedTail().Seq, r.h.log.AssignedTail().Seq, r.lose >= 0)
	if sd := r.sd; sd != nil {
		fmt.Fprintf(&b, "step-down %v %v %v|", sd.heard, sd.err, sd.demoted)
	}
	for _, c := range r.calls {
		if c.replies == 0 {
			fmt.Fprintf(&b, "c%d:%s,", c.client, strings.Join(c.op.args, " "))
		}
	}
	return b.String()
}

// explore runs the search from a fresh harness and returns how many
// distinct states it reached; it stops at the first violation and
// returns it with the inputs that led there.
func explore(t testing.TB) (states int, fault string, trace []exAct) {
	seen := make(map[string]int) // state → the most inputs left when explored
	var path []exAct
	replay := func() *exRun {
		r := newExRun(t)
		for _, a := range path {
			r.run(a)
		}
		return r
	}
	var dfs func(r *exRun, left int) bool
	dfs = func(r *exRun, left int) bool {
		acts := r.enabled()
		for i, a := range acts {
			if i > 0 {
				r = replay()
			}
			r.run(a)
			path = append(path, a)
			if r.fault != "" {
				fault, trace = r.fault, append([]exAct(nil), path...)
				return false
			}
			s := r.state()
			if prev, ok := seen[s]; !ok || prev < left-1 {
				if !ok {
					states++
				}
				seen[s] = left - 1
				if left > 1 && !dfs(r, left-1) {
					return false
				}
			}
			path = path[:len(path)-1]
		}
		return true
	}
	r := newExRun(t)
	seen[r.state()] = exploreDepth
	states = 1
	dfs(r, exploreDepth)
	return states, fault, trace
}

// TestExploreStepInputs searches the workloop's inputs on a primary and a
// replica of one log for a broken promise to a client. The search leaves
// no goroutine behind: none that the program's code started is live after
// it that was not before (a goroutine an earlier test left may exit).
func TestExploreStepInputs(t *testing.T) {
	before := len(goroutinesCreatedBy("memorydb/"))
	states, fault, trace := explore(t)
	if after := len(goroutinesCreatedBy("memorydb/")); after > before {
		t.Errorf("the search left %d goroutines behind", after-before)
	}
	if fault != "" {
		var steps []string
		for _, a := range trace {
			steps = append(steps, a.String())
		}
		t.Fatalf("after %d inputs (%s): %s", len(trace), strings.Join(steps, "; "), fault)
	}
	t.Logf("explored %d states, %d inputs deep", states, exploreDepth)
}
