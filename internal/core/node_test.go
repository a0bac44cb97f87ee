package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/resp"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/txlog"
)

func testService(t *testing.T, commit netsim.LatencyModel) *txlog.Service {
	t.Helper()
	return txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: commit,
	})
}

// faultyService is testService with a fault registry the test holds, for
// raising zone and whole-service outages at the txlog.* sites.
func faultyService(t *testing.T, commit netsim.LatencyModel) (*txlog.Service, *faultpoint.Registry) {
	t.Helper()
	faults := faultpoint.New(1)
	return txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: commit,
		Faults:        faults,
	}), faults
}

// setLevel raises (or clears) a standing Error plan at site: a zone
// outage, a whole-service outage, or a node's partition from the log.
func setLevel(r *faultpoint.Registry, site string, on bool) {
	if on {
		r.SetPlan(site, 1, 0, faultpoint.Error)
	} else {
		r.SetPlan(site, 0, 0)
	}
}

func testNode(t *testing.T, id string, log *txlog.Log, snaps *snapshot.Manager) *Node {
	t.Helper()
	return testNodeWindow(t, id, log, snaps, 0) // 0 = core default (batching on)
}

// testNodeWindow is testNode with an explicit group-commit append window,
// so safety tests can run both with batching enabled and with one log
// entry per mutation (unboundedWindow).
func testNodeWindow(t *testing.T, id string, log *txlog.Log, snaps *snapshot.Manager, window int) *Node {
	t.Helper()
	n, err := NewNode(Config{
		NodeID:             id,
		ShardID:            log.ShardID(),
		Log:                log,
		Lease:              120 * time.Millisecond,
		Backoff:            160 * time.Millisecond,
		RenewEvery:         30 * time.Millisecond,
		Snapshots:          snaps,
		ChecksumEvery:      8,
		MaxInflightAppends: window,
	})
	if err != nil {
		t.Fatalf("NewNode(%s): %v", id, err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	return n
}

// unboundedWindow is an append window no load fills: the buffer is flushed
// behind every mutation, so each one gets a log entry of its own.
const unboundedWindow = 1 << 30

// batchModes enumerates the group-commit settings safety-critical tests
// run under: the default (batching on) and one log entry per mutation.
var batchModes = []struct {
	name   string
	window int
}{
	{"batch=default", 0},
	{"batch=1", unboundedWindow},
}

func waitRole(t *testing.T, n *Node, want election.Role, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if n.Role() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("node %s: role %v, want %v", n.ID(), n.Role(), want)
}

func mustDo(t *testing.T, n *Node, args ...string) resp.Value {
	t.Helper()
	argv := make([][]byte, len(args))
	for i, a := range args {
		argv[i] = []byte(a)
	}
	v, err := n.Do(context.Background(), argv)
	if err != nil {
		t.Fatalf("Do(%v): %v", args, err)
	}
	if v.IsError() {
		t.Fatalf("Do(%v) returned error reply: %s", args, v.Text())
	}
	return v
}

func TestPrimaryBootstrapAndReadWrite(t *testing.T) {
	svc := testService(t, netsim.Fixed(2*time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	if v := mustDo(t, n, "SET", "k", "v1"); v.Text() != "OK" {
		t.Fatalf("SET reply = %v", v)
	}
	if v := mustDo(t, n, "GET", "k"); v.Text() != "v1" {
		t.Fatalf("GET reply = %v", v)
	}
	// The write must be durable in the log by reply time.
	if tail := log.CommittedTail(); tail == txlog.ZeroID {
		t.Fatal("no committed entries after acknowledged write")
	}
	if log.AZCopies() == 0 {
		t.Fatal("expected multi-AZ copies recorded")
	}
}

func TestReplicaAppliesAndServesReads(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	primary := testNode(t, "node-a", log, nil)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	replica := testNode(t, "node-b", log, nil)
	waitRole(t, replica, election.RoleReplica, time.Second)

	mustDo(t, primary, "SET", "k", "v1")

	deadline := time.Now().Add(2 * time.Second)
	for {
		v, err := replica.DoReadOnly(context.Background(), [][]byte{[]byte("GET"), []byte("k")})
		if err != nil {
			t.Fatalf("replica read: %v", err)
		}
		if v.Text() == "v1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never saw committed write; last = %v", v)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Writes on the replica are rejected.
	v, err := replica.Do(context.Background(), [][]byte{[]byte("SET"), []byte("x"), []byte("y")})
	if err != nil {
		t.Fatalf("replica write: %v", err)
	}
	if !v.IsError() {
		t.Fatalf("replica accepted a write: %v", v)
	}
}

func TestFailoverPromotesCaughtUpReplicaWithoutDataLoss(t *testing.T) {
	svc := testService(t, netsim.Fixed(500*time.Microsecond))
	log, _ := svc.CreateLog("shard-1")
	primary := testNode(t, "node-a", log, nil)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	replica := testNode(t, "node-b", log, nil)
	waitRole(t, replica, election.RoleReplica, time.Second)

	for i := 0; i < 50; i++ {
		mustDo(t, primary, "SET", "k"+string(rune('0'+i%10)), "v"+string(rune('0'+i%10)))
	}
	mustDo(t, primary, "SET", "final", "durable")

	// Kill the primary. Every acknowledged write is already in the log.
	primary.Stop()

	waitRole(t, replica, election.RolePrimary, 3*time.Second)
	if v := mustDo(t, replica, "GET", "final"); v.Text() != "durable" {
		t.Fatalf("acknowledged write lost across failover: GET final = %v", v)
	}
}

func TestFencedOldPrimaryCannotCommit(t *testing.T) {
	svc, faults := faultyService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	primary := testNode(t, "node-a", log, nil)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)

	// Simulate a partition between the primary and the log service: its
	// appends fail, it cannot renew, and it must self-demote rather than
	// serve stale data (§4.1.3).
	setLevel(faults, faultpoint.SiteLogUnavailable, true)
	v, err := primary.Do(context.Background(), [][]byte{[]byte("SET"), []byte("k"), []byte("v")})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !v.IsError() {
		t.Fatalf("write acknowledged while log unavailable: %v", v)
	}
	waitRole(t, primary, election.RoleDemoted, 2*time.Second)
	setLevel(faults, faultpoint.SiteLogUnavailable, false)
	// With the partition healed the node resynchronizes and can campaign
	// again (it is the only node).
	waitRole(t, primary, election.RolePrimary, 3*time.Second)
	gv := mustDo(t, primary, "GET", "k")
	if !gv.Null {
		t.Fatalf("unacknowledged write became visible after resync: %v", gv)
	}
}

func TestRecoveryFromSnapshotAndLogSuffix(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	s3store := s3.New()
	mgr := snapshot.NewManager(s3store, "snapshots")

	primary := testNode(t, "node-a", log, mgr)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	for i := 0; i < 20; i++ {
		mustDo(t, primary, "SET", "k"+string(rune('a'+i)), "v")
	}
	// Off-box snapshot, then more writes that exist only in the log.
	cp := &snapshot.Builder{Manager: mgr, Log: log, ShardID: "shard-1", EngineVersion: 2}
	if _, err := cp.Full(context.Background()); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	mustDo(t, primary, "SET", "after-snap", "yes")

	// A brand-new replica restores snapshot + suffix without touching the
	// primary.
	replica := testNode(t, "node-c", log, mgr)
	waitRole(t, replica, election.RoleReplica, time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, err := replica.DoReadOnly(context.Background(), [][]byte{[]byte("GET"), []byte("after-snap")})
		if err != nil {
			t.Fatalf("replica read: %v", err)
		}
		if v.Text() == "yes" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restored replica never caught up")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if replica.Stats().Snapshot().SnapshotRestores == 0 {
		t.Fatal("replica did not restore from snapshot")
	}
}

func TestInfoCommand(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	mustDo(t, n, "SET", "k", "v")
	info := mustDo(t, n, "INFO").Text()
	for _, want := range []string{"role:primary", "epoch:1", "commands:", "keys:1", "engine_version:2"} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q:\n%s", want, info)
		}
	}
	// Replicas answer INFO too (monitoring polls every node).
	r := testNode(t, "node-b", log, nil)
	waitRole(t, r, election.RoleReplica, time.Second)
	v, err := r.Do(context.Background(), [][]byte{[]byte("INFO")})
	if err != nil || !strings.Contains(v.Text(), "role:replica") {
		t.Fatalf("replica INFO = %v %v", v, err)
	}
}

func TestUpgradeProtectionStallsOldReplica(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")

	newPrimary, err := NewNode(Config{
		NodeID: "new-engine", ShardID: "shard-1", Log: log,
		EngineVersion: 3,
		Lease:         120 * time.Millisecond, Backoff: 160 * time.Millisecond,
		RenewEvery: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	newPrimary.Start()
	t.Cleanup(newPrimary.Stop)
	waitRole(t, newPrimary, election.RolePrimary, 2*time.Second)

	oldReplica, err := NewNode(Config{
		NodeID: "old-engine", ShardID: "shard-1", Log: log,
		EngineVersion: 2,
		Lease:         120 * time.Millisecond, Backoff: 160 * time.Millisecond,
		RenewEvery: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	oldReplica.Start()
	t.Cleanup(oldReplica.Stop)

	mustDo(t, newPrimary, "SET", "k", "v")

	deadline := time.Now().Add(2 * time.Second)
	for !oldReplica.Stalled() {
		if time.Now().After(deadline) {
			t.Fatal("old replica did not stall on newer-version stream")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestUpgradeProtectionEntryCommittedBeforeStart closes the restore-path
// hole: the newer-engine record is already committed when the old replica
// starts (or is killed and restarted), so it is restore — not the tailer —
// that meets it first. The replica must stall there without applying it,
// and must never campaign, even once the primary is gone.
func TestUpgradeProtectionEntryCommittedBeforeStart(t *testing.T) {
	cfg := func(id string, log *txlog.Log, version uint32) Config {
		return Config{
			NodeID: id, ShardID: log.ShardID(), Log: log, EngineVersion: version,
			Lease: 120 * time.Millisecond, Backoff: 160 * time.Millisecond,
			RenewEvery: 30 * time.Millisecond,
		}
	}
	start := func(t *testing.T, c Config) *Node {
		t.Helper()
		n, err := NewNode(c)
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		t.Cleanup(n.Stop)
		return n
	}
	for _, restart := range []bool{false, true} {
		name := "start"
		if restart {
			name = "kill-restart"
		}
		t.Run(name, func(t *testing.T) {
			svc := testService(t, netsim.Zero{})
			log, _ := svc.CreateLog("shard-1")
			newPrimary := start(t, cfg("new-engine", log, 3))
			waitRole(t, newPrimary, election.RolePrimary, 2*time.Second)

			var killed *Node
			if restart {
				// The old replica lived through nothing but control entries,
				// then dies before the first newer-engine record commits.
				killed = start(t, cfg("old-engine", log, 2))
				waitRole(t, killed, election.RoleReplica, 2*time.Second)
				killed.Freeze()
			}
			mustDo(t, newPrimary, "SET", "k", "v")
			stallAt := log.CommittedTail().Seq
			if killed != nil {
				killed.Stop()
			}

			old := start(t, cfg("old-engine", log, 2))
			deadline := time.Now().Add(2 * time.Second)
			for !old.Stalled() {
				if time.Now().After(deadline) {
					t.Fatalf("old replica did not stall (applied %d, newer-engine record at or before %d)",
						old.AppliedSeq(), stallAt)
				}
				time.Sleep(2 * time.Millisecond)
			}
			if _, ok := old.liveDB().Peek("k"); ok {
				t.Fatal("old replica applied the newer-engine record")
			}
			if got := old.AppliedSeq(); got >= stallAt {
				t.Fatalf("old replica applied through %d, past the newer-engine record at %d", got, stallAt)
			}

			// With the primary gone the lease lapses; a stalled replica is
			// not caught up and must sit out every election.
			epoch := log.CurrentEpoch()
			newPrimary.Stop()
			time.Sleep(3 * 160 * time.Millisecond)
			if role := old.Role(); role != election.RoleReplica || log.CurrentEpoch() != epoch {
				t.Fatalf("stalled replica campaigned: role %v, epoch %d -> %d", role, epoch, log.CurrentEpoch())
			}
		})
	}
}
