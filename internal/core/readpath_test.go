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

// testReplicaWithPartition builds a replica whose log connectivity is
// governed by part, for asymmetric-partition scenarios: the node stays
// reachable by "clients" (direct DoRead calls) while its log feed dies.
func testReplicaWithPartition(t *testing.T, id string, log *txlog.Log, part *faultpoint.Registry) *Node {
	t.Helper()
	n, err := NewNode(Config{
		NodeID: id, ShardID: log.ShardID(), Log: log,
		Lease: 120 * time.Millisecond, Backoff: 160 * time.Millisecond,
		RenewEvery: 30 * time.Millisecond,
		Faults:     part,
	})
	if err != nil {
		t.Fatalf("NewNode(%s): %v", id, err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	return n
}

func getArgv(key string) [][]byte { return [][]byte{[]byte("GET"), []byte(key)} }

// TestReplicaLinearizableReadSeesEveryAcknowledgedWrite is the core
// linearizability contract: a replica read issued AFTER a write was
// acknowledged either observes that write (freshness proof succeeded) or
// degrades explicitly — it never serves the old value as linearizable.
func TestReplicaLinearizableReadSeesEveryAcknowledgedWrite(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-rr")
	primary := testNode(t, "node-a", log, nil)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	replica := testNode(t, "node-b", log, nil)
	waitRole(t, replica, election.RoleReplica, time.Second)

	served := 0
	for i := 0; i < 25; i++ {
		want := fmt.Sprintf("v%d", i)
		mustDo(t, primary, "SET", "k", want)
		// No catch-up wait: the read must prove freshness on its own.
		v, outcome, err := replica.DoRead(context.Background(), getArgv("k"), ReadOpts{})
		if err != nil {
			t.Fatalf("DoRead: %v", err)
		}
		switch outcome {
		case ReadOutcomeLinearizable:
			if v.Text() != want {
				t.Fatalf("stale value %q served as linearizable; acknowledged write was %q", v.Text(), want)
			}
			served++
		case ReadOutcomeRedirected:
			if !IsRedirect(v) {
				t.Fatalf("redirect outcome with non-redirect reply: %v", v)
			}
		default:
			t.Fatalf("unexpected outcome %v", outcome)
		}
	}
	if served == 0 {
		t.Fatal("no read was ever served linearizably on a healthy caught-up replica")
	}
	if got := replica.Stats().ReplicaReadsServed.Load(); got != int64(served) {
		t.Fatalf("ReplicaReadsServed = %d, want %d", got, served)
	}

	// On the primary the same API reports the primary outcome.
	if _, outcome, err := primary.DoRead(context.Background(), getArgv("k"), ReadOpts{}); err != nil || outcome != ReadOutcomePrimary {
		t.Fatalf("primary DoRead outcome = %v err = %v", outcome, err)
	}
	// Write commands never take the replica-gated path: the workloop
	// rejects them exactly as before.
	v, outcome, err := replica.DoRead(context.Background(), [][]byte{[]byte("SET"), []byte("x"), []byte("y")}, ReadOpts{})
	if err != nil {
		t.Fatalf("DoRead(SET): %v", err)
	}
	if outcome != ReadOutcomePrimary || !v.IsError() || IsRedirect(v) {
		t.Fatalf("write through DoRead: outcome=%v reply=%v", outcome, v)
	}
}

// TestReplicaReadDegradesUnderAsymmetricPartition: a replica cut off
// from the log feed but still reachable by clients must not hang and
// must not serve stale data as linearizable — it walks the ladder:
// linearizable → REDIRECT; bounded-stale serves within the declared
// bound and redirects beyond it; eventual always serves.
func TestReplicaReadDegradesUnderAsymmetricPartition(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-rr")
	primary := testNode(t, "node-a", log, nil)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	part := faultpoint.New(1)
	replica := testReplicaWithPartition(t, "node-b", log, part)
	waitRole(t, replica, election.RoleReplica, time.Second)

	mustDo(t, primary, "SET", "k", "v1")
	// Let the replica catch up and prove it at least once: the tailer
	// stamps the proof when it parks, a moment after the apply that lets
	// the read through.
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, outcome, err := replica.DoRead(context.Background(), getArgv("k"), ReadOpts{})
		if err != nil {
			t.Fatalf("DoRead: %v", err)
		}
		if outcome == ReadOutcomeLinearizable && v.Text() == "v1" &&
			replica.stalenessNow() < time.Second {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never served the first write linearizably")
		}
		time.Sleep(2 * time.Millisecond)
	}

	setLevel(part, faultpoint.SiteNodePartition, true)

	// Linearizable: immediate explicit degrade, no hang.
	start := time.Now()
	v, outcome, err := replica.DoRead(context.Background(), getArgv("k"), ReadOpts{})
	if err != nil {
		t.Fatalf("DoRead under partition: %v", err)
	}
	if outcome != ReadOutcomeRedirected || !IsRedirect(v) {
		t.Fatalf("partitioned linearizable read: outcome=%v reply=%v", outcome, v)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("degradation took %v; reads must not hang on a dead feed", elapsed)
	}
	if replica.Stats().ReplicaReadsRedirected.Load() == 0 {
		t.Fatal("redirect not counted")
	}

	// Bounded-stale with a generous bound: served from last-known state,
	// explicitly marked stale.
	v, outcome, err = replica.DoRead(context.Background(), getArgv("k"),
		ReadOpts{Consistency: ReadBoundedStale, StalenessBound: 10 * time.Second})
	if err != nil {
		t.Fatalf("bounded-stale read: %v", err)
	}
	if outcome != ReadOutcomeStale || v.Text() != "v1" {
		t.Fatalf("bounded-stale read: outcome=%v reply=%v", outcome, v)
	}
	if replica.Stats().ReplicaReadsStale.Load() == 0 {
		t.Fatal("stale serve not counted")
	}

	// Once replica-local staleness exceeds the bound, bounded-stale
	// degrades to REDIRECT too: the bound is a promise, not a hint.
	time.Sleep(30 * time.Millisecond)
	v, outcome, err = replica.DoRead(context.Background(), getArgv("k"),
		ReadOpts{Consistency: ReadBoundedStale, StalenessBound: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("expired bounded-stale read: %v", err)
	}
	if outcome != ReadOutcomeRedirected || !IsRedirect(v) {
		t.Fatalf("expired bounded-stale read: outcome=%v reply=%v", outcome, v)
	}

	// Eventual: the legacy no-claim rung still serves.
	v, outcome, err = replica.DoRead(context.Background(), getArgv("k"),
		ReadOpts{Consistency: ReadEventual})
	if err != nil {
		t.Fatalf("eventual read: %v", err)
	}
	if outcome != ReadOutcomeEventual || v.Text() != "v1" {
		t.Fatalf("eventual read: outcome=%v reply=%v", outcome, v)
	}

	// Heal: linearizable reads recover without restarting anything.
	setLevel(part, faultpoint.SiteNodePartition, false)
	deadline = time.Now().Add(2 * time.Second)
	for {
		v, outcome, err := replica.DoRead(context.Background(), getArgv("k"), ReadOpts{})
		if err != nil {
			t.Fatalf("post-heal DoRead: %v", err)
		}
		if outcome == ReadOutcomeLinearizable && v.Text() == "v1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("linearizable reads did not recover after heal")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDeposedPrimaryServesConsistentReplicaReads is the failover-fencing
// half of the protocol: a primary deposed while partitioned (still
// believing its skewed-clock lease) rejoins as a replica of the new
// epoch; its replica reads must reflect the NEW regime's writes — its
// own stale pre-partition state must never leak out as linearizable.
func TestDeposedPrimaryServesConsistentReplicaReads(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-rrskew")
	partA := faultpoint.New(1)
	slow := election.NewSkewedClock(clock.NewReal(), 0, 0.35)
	a, err := NewNode(Config{
		NodeID: "node-a", ShardID: "shard-rrskew", Log: log,
		Lease: 120 * time.Millisecond, Backoff: 160 * time.Millisecond,
		RenewEvery: 30 * time.Millisecond,
		Clock:      slow, Faults: partA,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	t.Cleanup(a.Stop)
	waitRole(t, a, election.RolePrimary, 2*time.Second)
	b := testNode(t, "node-b", log, nil)
	waitRole(t, b, election.RoleReplica, time.Second)

	mustDo(t, a, "SET", "k", "old-regime")
	setLevel(partA, faultpoint.SiteNodePartition, true)
	waitRole(t, b, election.RolePrimary, 3*time.Second)
	mustDo(t, b, "SET", "k", "new-regime")

	// Heal; A discovers the new epoch and rejoins as a replica.
	setLevel(partA, faultpoint.SiteNodePartition, false)
	waitRole(t, a, election.RoleReplica, 5*time.Second)

	deadline := time.Now().Add(3 * time.Second)
	for {
		v, outcome, err := a.DoRead(context.Background(), getArgv("k"), ReadOpts{})
		if err != nil {
			t.Fatalf("DoRead on rejoined node: %v", err)
		}
		if outcome == ReadOutcomeLinearizable {
			if v.Text() != "new-regime" {
				t.Fatalf("deposed primary served %q as linearizable; new regime wrote %q", v.Text(), "new-regime")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined node never served a linearizable read; last outcome %v", outcome)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
