package core

import (
	"context"
	"testing"
	"time"

	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
)

// countPrimaries samples both nodes' roles.
func countPrimaries(nodes ...*Node) int {
	n := 0
	for _, node := range nodes {
		if node.Role() == election.RolePrimary {
			n++
		}
	}
	return n
}

// TestLeaderSingularityUnderPartition is the §4.1.3 safety property: when
// the primary is partitioned from the transaction log, the replica may
// only become primary after the old primary's lease has expired — sampled
// continuously, there is never a moment with two *serving* primaries.
func TestLeaderSingularityUnderPartition(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	partA := faultpoint.New(1)
	a, err := NewNode(Config{
		NodeID: "node-a", ShardID: "shard-1", Log: log,
		Lease: 120 * time.Millisecond, Backoff: 160 * time.Millisecond,
		RenewEvery: 30 * time.Millisecond,
		Faults:     partA,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	t.Cleanup(a.Stop)
	waitRole(t, a, election.RolePrimary, 2*time.Second)
	b := testNode(t, "node-b", log, nil)
	waitRole(t, b, election.RoleReplica, time.Second)
	mustDo(t, a, "SET", "k", "v")

	// Partition ONLY the primary from the log service: it can no longer
	// renew its lease or commit writes; the healthy replica campaigns
	// once the backoff elapses (§4.1.3 split-brain scenario).
	setLevel(partA, faultpoint.SiteNodePartition, true)
	go a.Do(context.Background(), [][]byte{[]byte("SET"), []byte("x"), []byte("y")})

	// During the whole transition, sample: never two primaries at once.
	deadline := time.Now().Add(3 * time.Second)
	sawPromotion := false
	for time.Now().Before(deadline) {
		if countPrimaries(a, b) > 1 {
			t.Fatal("two primaries observed simultaneously")
		}
		if b.Role() == election.RolePrimary {
			sawPromotion = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !sawPromotion {
		t.Fatal("replica never promoted after primary lost the log")
	}
	// The isolated node is not serving (demoted or lease-expired), and
	// the unacknowledged write never became visible on the new primary.
	if a.Role() == election.RolePrimary {
		t.Fatal("old primary still claims leadership after losing the log")
	}
	if v := mustDo(t, b, "GET", "k"); v.Text() != "v" {
		t.Fatalf("GET k = %v after transition", v)
	}
	if v := mustDo(t, b, "GET", "x"); !v.Null {
		t.Fatalf("unacknowledged write leaked: %v", v)
	}
	// Heal the partition: the fenced node rejoins as a replica.
	setLevel(partA, faultpoint.SiteNodePartition, false)
	waitRole(t, a, election.RoleReplica, 3*time.Second)
}

// TestNoClusterQuorumNeeded is §4.1's liveness improvement: election
// depends only on the transaction log, not on a majority of peers. A
// single surviving replica promotes even when every other node is gone.
func TestNoClusterQuorumNeeded(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	a := testNode(t, "node-a", log, nil)
	waitRole(t, a, election.RolePrimary, 2*time.Second)
	b := testNode(t, "node-b", log, nil)
	cNode := testNode(t, "node-c", log, nil)
	waitRole(t, b, election.RoleReplica, time.Second)
	mustDo(t, a, "SET", "k", "v")

	// Kill the primary AND one replica: 1 of 3 nodes survives — no
	// majority, yet the survivor wins leadership through the log.
	a.Stop()
	cNode.Stop()
	waitRole(t, b, election.RolePrimary, 3*time.Second)
	if v := mustDo(t, b, "GET", "k"); v.Text() != "v" {
		t.Fatalf("GET = %v", v)
	}
}

// TestStepDownHandsOverQuickly exercises the collaborative transfer: the
// lease-release entry lets the replica skip the backoff.
func TestStepDownHandsOverQuickly(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	a := testNode(t, "node-a", log, nil)
	waitRole(t, a, election.RolePrimary, 2*time.Second)
	b := testNode(t, "node-b", log, nil)
	waitRole(t, b, election.RoleReplica, time.Second)
	mustDo(t, a, "SET", "k", "v")
	waitApplied(t, b, log.CommittedTail().Seq, 2*time.Second)

	start := time.Now()
	if err := a.StepDown(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitRole(t, b, election.RolePrimary, 2*time.Second)
	handover := time.Since(start)
	// Collaborative transfer must be far faster than the 160ms backoff.
	if handover > 100*time.Millisecond {
		t.Fatalf("hand-over took %v — lease release not honoured", handover)
	}
	if v := mustDo(t, b, "GET", "k"); v.Text() != "v" {
		t.Fatalf("GET after hand-over = %v", v)
	}
}

// TestDemotedPrimaryRejoinsAsReplica: after fencing, the old primary
// resynchronizes from durable sources and serves as a replica again.
func TestDemotedPrimaryRejoinsAsReplica(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	a := testNode(t, "node-a", log, nil)
	waitRole(t, a, election.RolePrimary, 2*time.Second)
	b := testNode(t, "node-b", log, nil)
	waitRole(t, b, election.RoleReplica, time.Second)
	mustDo(t, a, "SET", "k", "v1")

	if err := a.StepDown(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitRole(t, b, election.RolePrimary, 2*time.Second)
	mustDo(t, b, "SET", "k", "v2")

	// a rejoins as a replica and converges on the new history.
	waitRole(t, a, election.RoleReplica, 3*time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, _, err := a.DoRead(context.Background(), [][]byte{[]byte("GET"), []byte("k")}, ReadOpts{})
		if err == nil && v.Text() == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old primary never converged: %v %v", v, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWholeLogOutageHaltsWritesPreservesData: if the transaction log
// service itself is unreachable, writes fail (no silent data loss) and
// service resumes when it returns.
func TestWholeLogOutageHaltsWritesPreservesData(t *testing.T) {
	svc, faults := faultyService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	a := testNode(t, "node-a", log, nil)
	waitRole(t, a, election.RolePrimary, 2*time.Second)
	mustDo(t, a, "SET", "k", "v")

	setLevel(faults, faultpoint.SiteLogUnavailable, true)
	v, err := a.Do(context.Background(), [][]byte{[]byte("SET"), []byte("k"), []byte("lost?")})
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsError() {
		t.Fatalf("write acknowledged during log outage: %v", v)
	}
	setLevel(faults, faultpoint.SiteLogUnavailable, false)
	waitRole(t, a, election.RolePrimary, 5*time.Second)
	if got := mustDo(t, a, "GET", "k"); got.Text() != "v" {
		t.Fatalf("GET = %v; committed value must survive the outage", got)
	}
}

// TestWaitCommand: WAIT degenerates to a durability barrier (§2.2.2 — in
// MemoryDB acknowledged writes are already multi-AZ durable).
func TestWaitCommand(t *testing.T) {
	svc := testService(t, netsim.Fixed(2*time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	a := testNode(t, "node-a", log, nil)
	waitRole(t, a, election.RolePrimary, 2*time.Second)
	mustDo(t, a, "SET", "k", "v")
	v := mustDo(t, a, "WAIT", "2", "0")
	if v.Int != 2 {
		t.Fatalf("WAIT = %v", v)
	}
}

// TestMonitoringCountersAdvance sanity-checks the Stats surface used by
// the monitoring service.
func TestMonitoringCountersAdvance(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	a := testNode(t, "node-a", log, nil)
	waitRole(t, a, election.RolePrimary, 2*time.Second)
	mustDo(t, a, "SET", "k", "v")
	mustDo(t, a, "GET", "k")
	st := a.Stats()
	if st.Commands.Load() < 2 || st.Mutations.Load() < 1 || st.Promotions.Load() < 1 {
		t.Fatalf("commands %d, mutations %d, promotions %d", st.Commands.Load(), st.Mutations.Load(), st.Promotions.Load())
	}
	if a.AppliedSeq() == 0 && st.EntriesApplied.Load() == 0 {
		// Primary does not apply, but AppliedSeq was set at promotion.
		t.Fatalf("applied seq = %d", a.AppliedSeq())
	}
}
