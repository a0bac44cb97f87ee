package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/txlog"
)

// simNode starts node id of log on clock sim — which the tests advance
// only when they mean to, so anything the node does meanwhile it does on
// the log's signals alone. The first node of a pristine shard claims it at
// once and, its clock stopped, keeps the lease; a later one tails the log
// and never campaigns.
func simNode(t *testing.T, id string, log *txlog.Log, sim *clock.Sim, part *faultpoint.Registry) *Node {
	t.Helper()
	n, err := NewNode(Config{
		NodeID: id, ShardID: log.ShardID(), Log: log, Clock: sim,
		Lease: 20 * time.Second, Backoff: 25 * time.Second, RenewEvery: 10 * time.Second,
		Faults: part,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	return n
}

// A replica learns of commits by push: with its clock frozen it still
// applies everything the primary commits. A tailer that needs time to pass
// in order to notice a commit cannot pass this.
func TestReplicaFollowsLogWithoutClock(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-push")
	primary := testNode(t, "node-a", log, nil)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	mustDo(t, primary, "SET", "k", "first")

	replica := simNode(t, "node-sim", log, clock.NewSim(time.Unix(0, 0)), nil)
	waitApplied(t, replica, log.CommittedTail().Seq, 5*time.Second)

	last := ""
	for i := 0; i < 200; i++ {
		last = fmt.Sprintf("v%d", i)
		mustDo(t, primary, "SET", "k", last)
	}
	waitApplied(t, replica, log.CommittedTail().Seq, 5*time.Second)
	v, outcome, err := replica.DoRead(context.Background(), getArgv("k"), ReadOpts{})
	if err != nil {
		t.Fatalf("DoRead: %v", err)
	}
	if outcome != ReadOutcomeLinearizable || v.Text() != last {
		t.Fatalf("replica read: outcome=%v value=%q, want linearizable %q", outcome, v.Text(), last)
	}
}

// A tailer that cannot read has no signal to wait on, so it must sleep one
// backoff step per attempt — not spin on an always-ready log, not pile up
// sleepers — and resume from its unchanged cursor once it can read again.
func TestPartitionedTailerSleepsOneBackoffStep(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-cut")
	// The primary renews every 10 s: the only commits in this test are
	// its claim and the SETs below.
	primary, err := NewNode(Config{
		NodeID: "node-a", ShardID: log.ShardID(), Log: log,
		Lease: 20 * time.Second, Backoff: 25 * time.Second, RenewEvery: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	primary.Start()
	t.Cleanup(primary.Stop)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	mustDo(t, primary, "SET", "k0", "before")

	sim := clock.NewSim(time.Unix(0, 0))
	part := faultpoint.New(1)
	replica := simNode(t, "node-sim", log, sim, part)
	waitApplied(t, replica, log.CommittedTail().Seq, 5*time.Second)
	// Caught up, the tailer parks beside its campaign timer.
	for deadline := time.Now().Add(2 * time.Second); sim.PendingWaiters() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("caught-up tailer never armed its campaign timer")
		}
		time.Sleep(time.Millisecond)
	}
	idle := sim.PendingWaiters()
	cursor, appliedBefore := replica.AppliedSeq(), replica.Stats().EntriesApplied.Load()

	setLevel(part, faultpoint.SiteNodePartition, true)
	for i := 0; i < 25; i++ {
		mustDo(t, primary, "SET", fmt.Sprintf("k%d", i), "during")
	}
	for deadline := time.Now().Add(2 * time.Second); sim.PendingWaiters() == idle; {
		if time.Now().After(deadline) {
			t.Fatal("partitioned tailer is not sleeping on its clock: it is spinning or still parked")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 25; i < 50; i++ {
		mustDo(t, primary, "SET", fmt.Sprintf("k%d", i), "during")
	}
	time.Sleep(20 * time.Millisecond)
	if got := sim.PendingWaiters(); got != idle+1 {
		t.Fatalf("partitioned tailer holds %d clock sleeps, want exactly 1", got-idle)
	}
	if got := replica.AppliedSeq(); got != cursor {
		t.Fatalf("partitioned tailer applied up to %d, cursor was %d", got, cursor)
	}

	// Healed, it is still asleep until its backoff step elapses…
	setLevel(part, faultpoint.SiteNodePartition, false)
	time.Sleep(20 * time.Millisecond)
	if got := replica.AppliedSeq(); got != cursor {
		t.Fatalf("tailer moved to %d without its clock advancing: it was not asleep", got)
	}
	// …and then catches up from the unchanged cursor: no gap, no
	// duplicate, no restore.
	sim.Advance(retryMax)
	waitApplied(t, replica, log.CommittedTail().Seq, 5*time.Second)
	if got := replica.Stats().EntriesApplied.Load() - appliedBefore; got != 50 {
		t.Fatalf("applied %d data entries after the partition, want 50", got)
	}
	if r := replica.Stats().ReaderRebootstraps.Load(); r != 0 {
		t.Fatalf("tailer re-bootstrapped %d times; it should have resumed its cursor", r)
	}
	for i := 0; i < 50; i++ {
		v, _, err := replica.DoRead(context.Background(), getArgv(fmt.Sprintf("k%d", i)), ReadOpts{Consistency: ReadEventual})
		if err != nil || v.Text() != "during" {
			t.Fatalf("k%d on the healed replica: %q %v", i, v.Text(), err)
		}
	}
}
