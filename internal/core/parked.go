package core

import (
	"time"

	"memorydb/internal/obs"
	"memorydb/internal/txlog"
)

// parkedRead is a task on the workloop's list of parked tasks: a replica
// read waiting, until its deadline, for the applied position to reach seq,
// its capture (readpath.go) — or a WaitApplied, which has no deadline.
type parkedRead struct {
	t        *task
	seq      uint64
	deadline time.Time
}

// unpark runs at the end of every workloop turn that leaves tasks parked,
// so a turn that applied an entry (applyEntry) or installed state
// (installState) releases what it covers once the whole step is done — a
// promotion's or a rejoin's role change included. A covered read goes back
// through the admission ladder, so a node demoted, stalled or promoted
// meanwhile answers it as it would a new read. A WaitApplied returns, with
// ErrUpgradeStall if the node stalled short of its position. With the read
// timer disarmed — it fired, or the first read just parked — unpark also
// degrades every read whose deadline passed and arms the timer for the
// earliest deadline left: one timer serves the whole list. A frozen node
// never gets here, the workloop parking at the crash gate first, so no
// crashed process answers a read.
func (n *Node) unpark() {
	var now, next time.Time
	if n.readTimer == nil {
		now = n.clk.Now()
	}
	n.sweepParked(func(p parkedRead) bool {
		t := p.t
		switch {
		case p.deadline.IsZero():
			if p.seq > n.applied.Seq {
				if !n.Stalled() {
					return true
				}
				t.err = txlog.ErrUpgradeStall
			}
			t.done <- struct{}{}
		case p.seq <= n.applied.Seq:
			n.unparked(t)
			t.outcome = ReadOutcomeLinearizable
			n.stats.ReplicaReadsServed.Add(1)
			n.serve(t)
		case now.IsZero() || now.Before(p.deadline):
			if next.IsZero() {
				next = p.deadline
			}
			return true
		default:
			n.unparked(t)
			if n.degrade(t) {
				n.serve(t)
			}
		}
		return false
	})
	if n.readTimer == nil && !next.IsZero() {
		n.readTimer = n.clk.After(next.Sub(now))
	}
}

// sweepParked keeps, in order, the parked tasks keep returns true for;
// keep answers the others. Answering never parks a task again: a read
// leaving the list is already cleared.
func (n *Node) sweepParked(keep func(parkedRead) bool) {
	kept := n.parked[:0]
	for _, p := range n.parked {
		if keep(p) {
			kept = append(kept, p)
		}
	}
	clear(n.parked[len(kept):])
	n.parked = kept
}

// unparked ends t's park: the park is t's replica_read_wait stage, and its
// execute stage starts now.
func (n *Node) unparked(t *task) {
	if t.deq != 0 {
		now := obs.Now()
		n.stage(obs.StageReplicaReadWait, t.tr.ctx(), 0, t.deq, now)
		t.deq = now
	}
}
