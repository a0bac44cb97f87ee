package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/resp"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// heldShard starts a primary and a caught-up replica of a fresh log: the
// primary on a stopped clock of its own (it keeps its lease and never
// renews), the replica on rclk, and the log on a third stopped clock. A
// commit then reaches the replica only once the test advances that clock
// past the log's push cadence, so a read the replica captures after a new
// commit stays parked until the test lets the commit through.
func heldShard(t *testing.T, rclk clock.Clock) (primary, replica *Node, logClock *clock.Sim) {
	t.Helper()
	logClock = clock.NewSim(time.Unix(0, 0))
	// Cleanups run last-in first-out: this one, after both nodes stopped,
	// releases the log's pending push.
	t.Cleanup(func() { logClock.Advance(time.Hour) })
	svc := txlog.NewService(txlog.Config{Clock: logClock, CommitLatency: netsim.Zero{}})
	log, _ := svc.CreateLog("shard-held")
	primary = simNode(t, "node-a", log, clock.NewSim(time.Unix(0, 0)), nil)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	replica, err := NewNode(Config{
		NodeID: "node-b", ShardID: log.ShardID(), Log: log, Clock: rclk,
		Lease: 20 * time.Second, Backoff: 25 * time.Second, RenewEvery: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	replica.Start()
	t.Cleanup(replica.Stop)
	// The turn that proves the replica drained the log also arms its
	// campaign deadline: after it the replica registers no timer of its own.
	waitFor(t, "the replica to drain the log", func() bool { return replica.stalenessNow() < time.Hour })
	return primary, replica, logClock
}

// A crashed replica answers no read: one parked before Freeze gets no
// REDIRECT when its deadline passes — no crashed process could send one —
// and fails with ErrStopped once the node is stopped, as does a read that
// arrives after.
func TestFrozenReplicaNeverAnswersAParkedRead(t *testing.T) {
	rclk := clock.NewSim(time.Unix(0, 0))
	primary, replica, _ := heldShard(t, rclk)
	mustDo(t, primary, "SET", "k", "v")

	type result struct {
		v   resp.Value
		err error
	}
	done := make(chan result, 1)
	idle := rclk.PendingWaiters()
	go func() {
		v, _, err := replica.DoRead(context.Background(), getArgv("k"), ReadOpts{})
		done <- result{v, err}
	}()
	// The parked read's deadline is a timer on the replica's clock.
	waitFor(t, "the read to park", func() bool { return rclk.PendingWaiters() > idle })
	replica.Freeze()
	rclk.Advance(2 * replica.cfg.ReplicaReadTimeout)
	select {
	case r := <-done:
		t.Fatalf("a frozen replica answered a parked read: %v, %v", r.v, r.err)
	case <-time.After(50 * time.Millisecond):
	}

	replica.Stop()
	select {
	case r := <-done:
		if !errors.Is(r.err, ErrStopped) {
			t.Fatalf("parked read on a stopped replica = %v, %v; want %v", r.v, r.err, ErrStopped)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked read did not return when the replica stopped")
	}
	if v, _, err := replica.DoRead(context.Background(), getArgv("k"), ReadOpts{}); !errors.Is(err, ErrStopped) {
		t.Fatalf("read after Stop = %v, %v; want %v", v, err, ErrStopped)
	}
}

// countingSim is a simulated clock counting the timers registered on it.
type countingSim struct {
	*clock.Sim
	timers atomic.Int64
}

func (c *countingSim) Sleep(d time.Duration) { c.timers.Add(1); c.Sim.Sleep(d) }

func (c *countingSim) After(d time.Duration) <-chan time.Time {
	c.timers.Add(1)
	return c.Sim.After(d)
}

func (c *countingSim) AfterFunc(d time.Duration, f func()) {
	c.timers.Add(1)
	c.Sim.AfterFunc(d, f)
}

// Reads parked at once share one deadline timer, for the earliest
// deadline, however many there are; the apply that covers them releases
// every one.
func TestParkedReplicaReadsShareOneTimer(t *testing.T) {
	clk := &countingSim{Sim: clock.NewSim(time.Unix(0, 0))}
	primary, replica, logClock := heldShard(t, clk)
	mustDo(t, primary, "SET", "k", "v")

	const reads = 8
	before := clk.timers.Load()
	errs := make(chan error, reads)
	for i := 0; i < reads; i++ {
		go func() {
			v, outcome, err := replica.DoRead(context.Background(), getArgv("k"), ReadOpts{})
			if err == nil && (outcome != ReadOutcomeLinearizable || v.Text() != "v") {
				err = fmt.Errorf("read = %v (%v), want a linearizable %q", v, outcome, "v")
			}
			errs <- err
		}()
	}
	waitFor(t, "every read to park", func() bool { return replica.parkedReads() == reads })
	logClock.Advance(time.Millisecond)
	for i := 0; i < reads; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := clk.timers.Load() - before; n > 1 {
		t.Fatalf("%d reads parked at once registered %d timers, want at most 1", reads, n)
	}
}

// A read the applied position covers executes at once; one it does not
// parks, unanswered, until the apply that covers its capture releases it.
// The replica's clock is stopped, so no deadline passes: only the apply
// can answer the read.
func TestParkedReplicaReadReleasedByCoveringApply(t *testing.T) {
	primary, replica, logClock := heldShard(t, clock.NewSim(time.Unix(0, 0)))
	if v, outcome, err := replica.DoRead(context.Background(), getArgv("k"), ReadOpts{}); err != nil || outcome != ReadOutcomeLinearizable || !v.Null {
		t.Fatalf("covered read = %v (%v), %v; want a linearizable nil", v, outcome, err)
	}

	mustDo(t, primary, "SET", "k", "v1")
	type result struct {
		v       resp.Value
		outcome ReadOutcome
		err     error
	}
	done := make(chan result, 1)
	go func() {
		v, outcome, err := replica.DoRead(context.Background(), getArgv("k"), ReadOpts{})
		done <- result{v, outcome, err}
	}()
	waitFor(t, "the read to park", func() bool { return replica.parkedReads() == 1 })
	select {
	case r := <-done:
		t.Fatalf("a parked read was answered before its capture was applied: %v", r)
	default:
	}
	logClock.Advance(time.Millisecond)
	r := <-done
	if r.err != nil || r.outcome != ReadOutcomeLinearizable || r.v.Text() != "v1" {
		t.Fatalf("released read = %v (%v), %v; want a linearizable %q", r.v, r.outcome, r.err, "v1")
	}
	if n := replica.parkedReads(); n != 0 {
		t.Fatalf("%d reads still parked after the covering apply", n)
	}
}

// The replica-local staleness the bounded-stale rung reads is unbounded
// until the tailer first proves it drained the log, then runs from the
// newest proof, which only moves forward.
func TestReplicaStalenessRunsFromNewestCaughtUpProof(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-fresh")
	primary := simNode(t, "node-a", log, clock.NewSim(time.Unix(0, 0)), nil)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)

	// Started cut off from the log, the replica cannot restore, let alone
	// drain the log.
	rclk := clock.NewSim(time.Unix(0, 0))
	part := faultpoint.New(1)
	setLevel(part, faultpoint.SiteNodePartition, true)
	replica := simNode(t, "node-b", log, rclk, part)
	if s := replica.stalenessNow(); s < time.Hour {
		t.Fatalf("staleness before any caught-up proof = %v, want unbounded", s)
	}

	setLevel(part, faultpoint.SiteNodePartition, false)
	rclk.Advance(retryMax) // the restore's retry
	waitFor(t, "the first caught-up proof", func() bool { return replica.stalenessNow() < time.Hour })
	if s := replica.stalenessNow(); s != 0 {
		t.Fatalf("staleness at the proof = %v, want 0", s)
	}
	rclk.Advance(10 * time.Millisecond)
	if s := replica.stalenessNow(); s != 10*time.Millisecond {
		t.Fatalf("staleness = %v, want 10ms", s)
	}
	// An older proof cannot move freshAt back; a newer one moves it on.
	note := func(ago time.Duration) {
		replica.run(context.Background(), func() error {
			replica.noteFresh(rclk.Now().Add(-ago))
			return nil
		})
	}
	note(time.Second)
	if s := replica.stalenessNow(); s != 10*time.Millisecond {
		t.Fatalf("staleness after an older proof = %v, want 10ms", s)
	}
	note(2 * time.Millisecond)
	if s := replica.stalenessNow(); s != 2*time.Millisecond {
		t.Fatalf("staleness after a newer proof = %v, want 2ms", s)
	}
}

// An entry from an epoch older than the newest the feed has shown — a
// deposed primary's — is counted once in WatermarksFenced and recorded on
// the flight ring; one from the newest epoch or a newer one is not.
func TestReplicaFencesOlderEpochEntry(t *testing.T) {
	_, replica, _ := heldShard(t, clock.NewSim(time.Unix(0, 0)))
	feed := func(epoch uint64) {
		replica.run(context.Background(), func() error {
			replica.fenceEpoch(txlog.Entry{ID: txlog.EntryID{Seq: 100 + epoch}, Epoch: epoch})
			return nil
		})
	}
	fences := func() (n int) {
		for _, ev := range replica.flight.Events() {
			if ev.Kind == trace.EvWatermarkFence {
				n++
			}
		}
		return n
	}
	feed(2)
	feed(1)
	if got := replica.Stats().WatermarksFenced.Load(); got != 1 || fences() != 1 {
		t.Fatalf("after an older epoch: WatermarksFenced = %d, flight events = %d; want 1, 1", got, fences())
	}
	feed(2)
	feed(3)
	if got := replica.Stats().WatermarksFenced.Load(); got != 1 || fences() != 1 {
		t.Fatalf("after the same and a newer epoch: WatermarksFenced = %d, flight events = %d; want 1, 1", got, fences())
	}
	feed(2)
	if got := replica.Stats().WatermarksFenced.Load(); got != 2 {
		t.Fatalf("an epoch below the new newest: WatermarksFenced = %d, want 2", got)
	}
}
