package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/resp"
	"memorydb/internal/txlog"
)

// TestSingleAZDownNoDemotionNoErrors is the first availability acceptance
// criterion: with exactly one AZ replica down the quorum still assembles,
// so writes keep committing — no demotion, no client-visible errors, just
// degraded commit latency.
func TestSingleAZDownNoDemotionNoErrors(t *testing.T) {
	for _, mode := range batchModes {
		t.Run(mode.name, func(t *testing.T) { singleAZDownNoDemotion(t, mode.window) })
	}
}

func singleAZDownNoDemotion(t *testing.T, window int) {
	svc, faults := faultyService(t, netsim.Fixed(500*time.Microsecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNodeWindow(t, "node-a", log, nil, window)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	setLevel(faults, faultpoint.ZoneAckSite(0), true)
	defer setLevel(faults, faultpoint.ZoneAckSite(0), false)

	for i := 0; i < 25; i++ {
		mustDo(t, n, "SET", fmt.Sprintf("k%d", i), "v")
	}
	for i := 0; i < 25; i++ {
		if v := mustDo(t, n, "GET", fmt.Sprintf("k%d", i)); v.Text() != "v" {
			t.Fatalf("GET k%d = %v", i, v)
		}
	}
	if n.Role() != election.RolePrimary {
		t.Fatalf("role = %v after single-AZ outage, want primary", n.Role())
	}
	st := n.Stats().Snapshot()
	if st.Demotions != 0 {
		t.Fatalf("Demotions = %d under single-AZ outage, want 0", st.Demotions)
	}
	if !log.Degraded() {
		t.Fatal("log should report degraded with one AZ down")
	}
	if log.Stats().DegradedAppends == 0 {
		t.Fatal("expected degraded (partial-ack) appends recorded")
	}
}

// TestServiceBlipShorterThanLeaseSurvives is the second criterion: a
// whole-service outage shorter than the lease is absorbed by the retry
// loop — the write blocks with its reply withheld, lands after the blip,
// and the leader never demotes.
func TestServiceBlipShorterThanLeaseSurvives(t *testing.T) {
	for _, mode := range batchModes {
		t.Run(mode.name, func(t *testing.T) { serviceBlipSurvives(t, mode.window) })
	}
}

func serviceBlipSurvives(t *testing.T, window int) {
	svc, faults := faultyService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	n := testNodeWindow(t, "node-a", log, nil, window) // 120ms lease
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	mustDo(t, n, "SET", "warm", "up")

	const blip = 50 * time.Millisecond
	setLevel(faults, faultpoint.SiteLogUnavailable, true)
	go func() {
		time.Sleep(blip)
		setLevel(faults, faultpoint.SiteLogUnavailable, false)
	}()

	start := time.Now()
	v := mustDo(t, n, "SET", "k", "v") // must block through the blip, then succeed
	if v.Text() != "OK" {
		t.Fatalf("SET reply = %v", v)
	}
	if d := time.Since(start); d < blip/2 {
		t.Fatalf("write acknowledged in %v — during the outage?", d)
	}
	if got := mustDo(t, n, "GET", "k"); got.Text() != "v" {
		t.Fatalf("GET k = %v", got)
	}
	if n.Role() != election.RolePrimary {
		t.Fatalf("role = %v after blip, want primary", n.Role())
	}
	st := n.Stats().Snapshot()
	if st.Demotions != 0 {
		t.Fatalf("Demotions = %d after a sub-lease blip, want 0", st.Demotions)
	}
	if st.AppendsRetried == 0 {
		t.Fatal("expected AppendsRetried > 0: the blip must have been absorbed by retries")
	}
	if st.DegradedMillis == 0 {
		t.Fatal("expected DegradedMillis > 0 from backoff sleeps during the blip")
	}
}

// TestRetryAnswersCommittedWrites: a flush retrying a transient failure
// first answers for the appends that committed before it. The first SET's
// entry commits while the workloop flushes the second SET into a one-shot
// node.partition Error; the first SET gets OK while the retry's backoff
// sleeps on a node clock only the test moves. A retry that held it back
// would answer it after the outage at best, and CLUSTERDOWN once an outage
// outlasted the lease.
func TestRetryAnswersCommittedWrites(t *testing.T) {
	faults := faultpoint.New(1)
	n, commit, _ := heldNode(t, 2, faults)
	nodeClk := n.clk.(*clock.Sim)
	ctx := context.Background()
	st := n.Stats()
	flushes, retried := st.BatchFlushes.Load(), st.AppendsRetried.Load()

	first := make(chan resp.Value, 1)
	go func() {
		v, err := n.Do(ctx, [][]byte{[]byte("SET"), []byte("{r}a"), []byte("1")})
		if err != nil {
			v = resp.Err(err.Error())
		}
		first <- v
	}()
	waitFor(t, "the first SET's entry to be issued", func() bool { return st.BatchFlushes.Load() == flushes+1 })

	faults.Arm(faultpoint.SiteNodePartition, faultpoint.Error, 0)
	second := &task{kind: taskCmd, argv: [][]byte{[]byte("SET"), []byte("{r}b"), []byte("2")}, done: make(chan struct{}, 1)}
	second.resolve()
	holding := make(chan struct{})
	go n.run(ctx, func() error {
		// The workloop is held here, so nothing answers for the first
		// entry before the second SET's flush meets the partition.
		close(holding)
		<-n.issued[0].p.Done()
		n.handleClient(second)
		return nil
	})
	<-holding
	// The log's committer arms its timer for the entry from a Now it read
	// earlier, so one Advance can land before the timer and miss it: pump
	// the log clock until the reply arrives. The node clock stays stopped,
	// so the retry sleeps throughout.
	var v resp.Value
	waitFor(t, "the committed SET's reply while the retry slept", func() bool {
		commit()
		select {
		case v = <-first:
			return true
		default:
			return false
		}
	})
	if v.Text() != "OK" {
		t.Fatalf("the committed SET got %v during the retry, want OK", v)
	}
	// The retry loop answers for the committed entry before it counts the
	// retry, so the reply can arrive first; the count then holds at one
	// until the backoff ends on the stopped node clock.
	waitFor(t, "the second SET's retry", func() bool { return st.AppendsRetried.Load() > retried })
	if got := st.AppendsRetried.Load() - retried; got != 1 {
		t.Fatalf("%d append retries, want the second SET's one", got)
	}

	// The backoff ends on the node clock; the second SET lands and commits.
	waitFor(t, "the second SET's reply", func() bool {
		nodeClk.Advance(retryBase)
		commit()
		select {
		case <-second.done:
			return true
		default:
			return false
		}
	})
	if second.val.Text() != "OK" {
		t.Fatalf("the retried SET got %v, want OK", second.val)
	}
}

// TestFencedAppendDemotesImmediately is the third criterion: a fenced
// append (ErrConditionFailed — another writer owns the tail) is fatal and
// demotes at once, with zero transient retries spent on it.
func TestFencedAppendDemotesImmediately(t *testing.T) {
	for _, mode := range batchModes {
		t.Run(mode.name, func(t *testing.T) { fencedAppendDemotes(t, mode.window) })
	}
}

func fencedAppendDemotes(t *testing.T, window int) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	n := testNodeWindow(t, "node-a", log, nil, window)
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	mustDo(t, n, "SET", "k", "v1")

	// Usurp the tail directly, as a competing writer would: the primary's
	// next append no longer follows the tail and must fence.
	for {
		if _, err := log.Append(context.Background(), log.AssignedTail(),
			txlog.Entry{Type: txlog.EntryData, Payload: []byte("usurper")}); err == nil {
			break
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && n.Role() == election.RolePrimary {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		n.Do(ctx, [][]byte{[]byte("SET"), []byte("k"), []byte("v2")})
		cancel()
		time.Sleep(2 * time.Millisecond)
	}
	if n.Role() == election.RolePrimary {
		t.Fatal("fenced primary never demoted")
	}
	st := n.Stats().Snapshot()
	if st.Demotions == 0 {
		t.Fatal("Demotions = 0, want >= 1")
	}
	if st.AppendsRetried != 0 || st.RenewalsRetried != 0 {
		t.Fatalf("fencing must not be retried: AppendsRetried=%d RenewalsRetried=%d",
			st.AppendsRetried, st.RenewalsRetried)
	}
}

// TestRobustnessCountersUnderAZFlap is the satellite counters test: a
// single-AZ flap opens a degraded window that lands in DegradedMillis,
// and a whole-service flap with no writes in flight drives the lease
// renewal path through its retry loop (RenewalsRetried) — all without a
// single demotion. The counters must also surface in INFO.
func TestRobustnessCountersUnderAZFlap(t *testing.T) {
	svc, faults := faultyService(t, netsim.Fixed(200*time.Microsecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	mustDo(t, n, "SET", "warm", "up")

	// Single-AZ flap: partial-ack commits open the degraded window...
	setLevel(faults, faultpoint.ZoneAckSite(1), true)
	mustDo(t, n, "SET", "a", "1")
	time.Sleep(40 * time.Millisecond)
	mustDo(t, n, "SET", "b", "2")
	// ...and the first full-replication commit after healing closes it.
	setLevel(faults, faultpoint.ZoneAckSite(1), false)
	mustDo(t, n, "SET", "c", "3")

	st := n.Stats().Snapshot()
	if st.DegradedMillis < 30 {
		t.Fatalf("DegradedMillis = %d after a ~40ms single-AZ flap, want >= 30", st.DegradedMillis)
	}
	if st.Demotions != 0 {
		t.Fatalf("Demotions = %d, want 0", st.Demotions)
	}

	// Whole-service flap with no writes queued: the renewal tick itself
	// hits the outage and retries through it.
	setLevel(faults, faultpoint.SiteLogUnavailable, true)
	time.Sleep(45 * time.Millisecond) // > RenewEvery (30ms), < lease (120ms)
	setLevel(faults, faultpoint.SiteLogUnavailable, false)
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && n.Stats().RenewalsRetried.Load() == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	st = n.Stats().Snapshot()
	if st.RenewalsRetried == 0 {
		t.Fatal("RenewalsRetried = 0 after a whole-service flap spanning a renew tick")
	}
	if st.Demotions != 0 {
		t.Fatalf("Demotions = %d after sub-lease service flap, want 0", st.Demotions)
	}
	if n.Role() != election.RolePrimary {
		t.Fatalf("role = %v, want primary", n.Role())
	}

	info := mustDo(t, n, "INFO").Text()
	for _, field := range []string{"appends_retried:", "renewals_retried:", "degraded_millis:", "log_degraded:", "log_degraded_appends:"} {
		if !strings.Contains(info, field) {
			t.Fatalf("INFO missing %q:\n%s", field, info)
		}
	}
	if !strings.Contains(info, fmt.Sprintf("renewals_retried:%d", st.RenewalsRetried)) &&
		!strings.Contains(info, "renewals_retried:") {
		t.Fatalf("INFO renewals_retried mismatch:\n%s", info)
	}
}

// TestReplicaTailerSurvivesLogOutage: a replica polling the log across a
// service blip must not demote or restore — it reconnects and resumes
// applying from its cursor.
func TestReplicaTailerSurvivesLogOutage(t *testing.T) {
	svc, faults := faultyService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	primary := testNode(t, "node-a", log, nil)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	replica := testNode(t, "node-b", log, nil)
	waitRole(t, replica, election.RoleReplica, time.Second)

	mustDo(t, primary, "SET", "k1", "v1")
	waitApplied(t, replica, log.CommittedTail().Seq, time.Second)
	restoresBefore := replica.Stats().SnapshotRestores.Load()

	setLevel(faults, faultpoint.SiteLogUnavailable, true)
	time.Sleep(30 * time.Millisecond)
	setLevel(faults, faultpoint.SiteLogUnavailable, false)

	mustDo(t, primary, "SET", "k2", "v2")
	waitApplied(t, replica, log.CommittedTail().Seq, 2*time.Second)
	v, err := replica.DoReadOnly(context.Background(), [][]byte{[]byte("GET"), []byte("k2")})
	if err != nil || v.Text() != "v2" {
		t.Fatalf("replica read after outage: %v %v", v, err)
	}
	if got := replica.Stats().SnapshotRestores.Load(); got != restoresBefore {
		t.Fatalf("replica restored (%d -> %d) across a transient outage instead of reconnecting",
			restoresBefore, got)
	}
	if replica.Stats().Demotions.Load() != 0 {
		t.Fatal("replica demoted across a transient log outage")
	}
}

func waitApplied(t *testing.T, n *Node, seq uint64, within time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	if err := n.WaitApplied(ctx, seq); err != nil {
		t.Fatalf("node %s applied %d, want >= %d: %v", n.ID(), n.AppliedSeq(), seq, err)
	}
}
