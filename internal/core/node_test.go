package core

import (
	"context"
	"errors"
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
	"memorydb/internal/store"
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

// batchDefault names the subtest the safety-critical tests run their body
// in. The node has one group-commit policy, so the level only keeps the
// tests' ids stable.
const batchDefault = "batch=default"

func testNode(t *testing.T, id string, log *txlog.Log, snaps *snapshot.Manager) *Node {
	t.Helper()
	n, err := NewNode(Config{
		NodeID:        id,
		ShardID:       log.ShardID(),
		Log:           log,
		Lease:         120 * time.Millisecond,
		Backoff:       160 * time.Millisecond,
		RenewEvery:    30 * time.Millisecond,
		Snapshots:     snaps,
		ChecksumEvery: 8,
	})
	if err != nil {
		t.Fatalf("NewNode(%s): %v", id, err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	return n
}

// waitChanged waits on n's change signal until cond holds, and reports
// false if it does not within the deadline. cond reads what Changed
// covers: role, epoch, freeze, upgrade stall, stop.
func waitChanged(n *Node, within time.Duration, cond func() bool) bool {
	deadline := time.NewTimer(within)
	defer deadline.Stop()
	for {
		changed := n.Changed()
		if cond() {
			return true
		}
		select {
		case <-changed:
		case <-deadline.C:
			return cond()
		}
	}
}

func waitRole(t *testing.T, n *Node, want election.Role, within time.Duration) {
	t.Helper()
	if !waitChanged(n, within, func() bool { return n.Role() == want }) {
		t.Fatalf("node %s: role %v, want %v", n.ID(), n.Role(), want)
	}
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

// TestNewNodeBuildsNoKeyspace: a node's keyspace comes from its first
// restore, so NewNode builds none for the restore to replace — it
// allocates fewer objects than one empty store.DB (a slot array and a map
// per part).
func TestNewNodeBuildsNoKeyspace(t *testing.T) {
	log, err := testService(t, netsim.Fixed(0)).CreateLog("s")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NodeID: "n", ShardID: "s", Log: log, NoObs: true}
	node := testing.AllocsPerRun(10, func() {
		if _, err := NewNode(cfg); err != nil {
			t.Fatal(err)
		}
	})
	db := testing.AllocsPerRun(10, func() { store.NewDB() })
	if node >= db {
		t.Fatalf("NewNode allocates %.0f objects, an empty store.DB %.0f: it builds a keyspace", node, db)
	}
}

// TestFailedFirstRestoreServesEmptyKeyspace: a node cut off from the log
// at start fails its first restore, and its workloop goes on answering
// INFO between attempts, over an empty keyspace.
func TestFailedFirstRestoreServesEmptyKeyspace(t *testing.T) {
	log, err := testService(t, netsim.Fixed(0)).CreateLog("s")
	if err != nil {
		t.Fatal(err)
	}
	faults := faultpoint.New(1)
	faults.SetPlan(faultpoint.SiteNodePartition, 1, 0, faultpoint.Error)
	// Never started: the test goroutine is the workloop.
	n, err := NewNode(Config{NodeID: "n", ShardID: "s", Log: log, Faults: faults, NoObs: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	n.restore()
	if info := n.infoText(); !strings.Contains(info, "keys:0\r\n") {
		t.Fatalf("INFO after a failed first restore:\n%s", info)
	}
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
	waitApplied(t, replica, log.CommittedTail().Seq, 2*time.Second)
	v, _, err := replica.DoRead(context.Background(), [][]byte{[]byte("GET"), []byte("k")}, ReadOpts{})
	if err != nil || v.Text() != "v1" {
		t.Fatalf("replica applied the committed write but reads %v (%v)", v, err)
	}

	// Writes on the replica are rejected.
	v, err = replica.Do(context.Background(), [][]byte{[]byte("SET"), []byte("x"), []byte("y")})
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
	waitApplied(t, replica, log.CommittedTail().Seq, 2*time.Second)
	v, _, err := replica.DoRead(context.Background(), [][]byte{[]byte("GET"), []byte("after-snap")}, ReadOpts{})
	if err != nil || v.Text() != "yes" {
		t.Fatalf("restored replica caught up but reads %v (%v)", v, err)
	}
	if replica.Stats().SnapshotRestores.Load() == 0 {
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

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := oldReplica.WaitApplied(ctx, log.CommittedTail().Seq); !errors.Is(err, txlog.ErrUpgradeStall) {
		t.Fatalf("waiting on the old replica to apply a newer-version stream: %v, want %v", err, txlog.ErrUpgradeStall)
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
			if !waitChanged(old, 2*time.Second, old.Stalled) {
				t.Fatalf("old replica did not stall (applied %d, newer-engine record at or before %d)",
					old.AppliedSeq(), stallAt)
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

// TestWaitApplied: WaitApplied returns once the node applies the position
// it waits for, ctx's error when ctx ends first, and ErrStopped when the
// node stops.
func TestWaitApplied(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	primary := testNode(t, "node-a", log, nil)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	replica := testNode(t, "node-b", log, nil)
	mustDo(t, primary, "SET", "k", "v")
	waitApplied(t, replica, log.CommittedTail().Seq, 2*time.Second)

	beyond := log.CommittedTail().Seq + 1000
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := replica.WaitApplied(ctx, beyond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitApplied past the tail with a 10ms context: %v, want %v", err, context.DeadlineExceeded)
	}
	done := make(chan error, 1)
	go func() { done <- replica.WaitApplied(context.Background(), beyond) }()
	replica.Stop()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("WaitApplied on a stopped node: %v, want %v", err, ErrStopped)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitApplied did not return when the node stopped")
	}
}
