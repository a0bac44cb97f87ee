package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/txlog"
)

// TestSingleAZDownNoDemotionNoErrors is the first availability acceptance
// criterion: with exactly one AZ replica down the quorum still assembles,
// so writes keep committing — no demotion, no client-visible errors, just
// degraded commit latency.
func TestSingleAZDownNoDemotionNoErrors(t *testing.T) { t.Run(batchDefault, singleAZDownNoDemotion) }

func singleAZDownNoDemotion(t *testing.T) {
	faults := faultpoint.New(1)
	h := newHarness(t, harnessConfig{faults: faults})
	setLevel(faults, faultpoint.ZoneAckSite(0), true)
	for i := 0; i < 25; i++ {
		set := h.do("SET", fmt.Sprintf("k%d", i), "v")
		h.commit()
		h.mustReply(set, "OK")
	}
	for i := 0; i < 25; i++ {
		h.mustReply(h.do("GET", fmt.Sprintf("k%d", i)), "v")
	}
	if h.primary.Role() != election.RolePrimary {
		t.Fatalf("role = %v after single-AZ outage, want primary", h.primary.Role())
	}
	if d := h.primary.Stats().Demotions.Load(); d != 0 {
		t.Fatalf("Demotions = %d under single-AZ outage, want 0", d)
	}
	if !h.log.Degraded() {
		t.Fatal("log should report degraded with one AZ down")
	}
	if h.log.Stats().DegradedAppends == 0 {
		t.Fatal("expected degraded (partial-ack) appends recorded")
	}
}

// TestServiceBlipShorterThanLeaseSurvives is the second criterion: a
// whole-service outage shorter than the lease is absorbed by the retry
// loop — the write blocks with its reply withheld, lands after the blip,
// and the leader never demotes.
func TestServiceBlipShorterThanLeaseSurvives(t *testing.T) { t.Run(batchDefault, serviceBlipSurvives) }

func serviceBlipSurvives(t *testing.T) {
	faults := faultpoint.New(1)
	h := newHarness(t, harnessConfig{faults: faults})
	warm := h.do("SET", "warm", "up")
	h.commit()
	h.mustReply(warm, "OK")

	// The blip: the service fails the next eight appends, a few
	// milliseconds of backoff on the node's clock against a 20 s lease.
	const blip = 8
	for range blip {
		faults.Arm(faultpoint.SiteLogUnavailable, faultpoint.Error, 0)
	}
	set := h.do("SET", "k", "v") // its flush retries through the blip in this turn
	h.mustWait(set)
	h.commit()
	h.mustReply(set, "OK")
	h.mustReply(h.do("GET", "k"), "v")
	if h.primary.Role() != election.RolePrimary {
		t.Fatalf("role = %v after blip, want primary", h.primary.Role())
	}
	st := h.primary.Stats()
	if n := st.Demotions.Load(); n != 0 {
		t.Fatalf("Demotions = %d after a sub-lease blip, want 0", n)
	}
	if n := st.AppendsRetried.Load(); n != blip {
		t.Fatalf("AppendsRetried = %d, want the blip's %d: it must be absorbed by retries", n, blip)
	}
	if st.DegradedMillis.Load() == 0 {
		t.Fatal("expected DegradedMillis > 0 from backoff sleeps during the blip")
	}
}

// TestRetryAnswersCommittedWrites: a flush retrying a transient failure
// first answers for the appends that committed before it. The first SET's
// entry has committed, unanswered, when the second SET's flush meets a
// one-shot node.partition Error; the first SET gets OK within that turn,
// while the retry backs off. A retry that held it back would answer it
// after the outage at best, and CLUSTERDOWN once an outage outlasted the
// lease.
func TestRetryAnswersCommittedWrites(t *testing.T) {
	faults := faultpoint.New(1)
	h := newHarness(t, harnessConfig{faults: faults})
	st := h.primary.Stats()
	first := h.do("SET", "{r}a", "1")
	h.commitHead()
	h.mustWait(first)

	faults.Arm(faultpoint.SiteNodePartition, faultpoint.Error, 0)
	retried := st.AppendsRetried.Load()
	second := h.do("SET", "{r}b", "2")
	h.mustReply(first, "OK")
	if got := st.AppendsRetried.Load() - retried; got != 1 {
		t.Fatalf("%d append retries, want the second SET's one", got)
	}
	h.mustWait(second)
	h.commit()
	h.mustReply(second, "OK")
}

// TestFencedAppendDemotesImmediately is the third criterion: a fenced
// append (ErrConditionFailed — another writer owns the tail) is fatal and
// demotes at once, with zero transient retries spent on it.
func TestFencedAppendDemotesImmediately(t *testing.T) { t.Run(batchDefault, fencedAppendDemotes) }

func fencedAppendDemotes(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	set := h.do("SET", "k", "v1")
	h.commit()
	h.mustReply(set, "OK")

	// Usurp the tail directly, as a competing writer would: the primary's
	// next append no longer follows the tail and must fence.
	if _, err := h.log.StartAppend(h.log.AssignedTail(), txlog.Entry{Type: txlog.EntryData, Payload: []byte("usurper")}); err != nil {
		t.Fatal(err)
	}
	if v := h.mustReply(h.do("SET", "k", "v2"), ""); !v.IsError() {
		t.Fatalf("a fenced write was acknowledged: %v", v)
	}
	if h.primary.Role() == election.RolePrimary {
		t.Fatal("fenced primary never demoted")
	}
	st := h.primary.Stats()
	if st.Demotions.Load() == 0 {
		t.Fatal("Demotions = 0, want >= 1")
	}
	if st.AppendsRetried.Load() != 0 || st.RenewalsRetried.Load() != 0 {
		t.Fatalf("fencing must not be retried: AppendsRetried=%d RenewalsRetried=%d",
			st.AppendsRetried.Load(), st.RenewalsRetried.Load())
	}
}

// TestRobustnessCountersUnderAZFlap is the satellite counters test: a
// single-AZ flap opens a degraded window that lands in DegradedMillis,
// and a whole-service flap with no writes in flight drives the lease
// renewal path through its retry loop (RenewalsRetried) — all without a
// single demotion. The counters must also surface in INFO.
func TestRobustnessCountersUnderAZFlap(t *testing.T) {
	faults := faultpoint.New(1)
	h := newHarness(t, harnessConfig{faults: faults})
	set := func(key string) {
		t.Helper()
		c := h.do("SET", key, "v")
		h.commit()
		h.mustReply(c, "OK")
	}
	set("warm")

	// Single-AZ flap: partial-ack commits open the degraded window...
	setLevel(faults, faultpoint.ZoneAckSite(1), true)
	set("a")
	h.primary.clk.Advance(40 * time.Millisecond)
	set("b")
	// ...and the first full-replication commit after healing closes it.
	setLevel(faults, faultpoint.ZoneAckSite(1), false)
	set("c")
	st := h.primary.Stats()
	if got := st.DegradedMillis.Load(); got != 40 {
		t.Fatalf("DegradedMillis = %d after a 40 ms single-AZ flap, want 40", got)
	}

	// Whole-service flap with no writes queued: the renewal tick itself
	// meets the outage and retries through it.
	const flap = 3
	for range flap {
		faults.Arm(faultpoint.SiteLogUnavailable, faultpoint.Error, 0)
	}
	h.tick()
	if got := st.RenewalsRetried.Load(); got != flap {
		t.Fatalf("RenewalsRetried = %d after a service flap across a renewal, want %d", got, flap)
	}
	if got := st.Demotions.Load(); got != 0 {
		t.Fatalf("Demotions = %d after sub-lease flaps, want 0", got)
	}
	if h.primary.Role() != election.RolePrimary {
		t.Fatalf("role = %v, want primary", h.primary.Role())
	}

	info := h.info(h.primary)
	for _, field := range []string{"appends_retried:", "renewals_retried:3\n", "degraded_millis:", "log_degraded:", "log_degraded_appends:"} {
		if !strings.Contains(info, field) {
			t.Fatalf("INFO missing %q:\n%s", field, info)
		}
	}
}

// TestReplicaTailerSurvivesLogOutage: a replica reading the log across a
// service blip must not demote or restore — it backs off, reconnects and
// resumes applying from its cursor.
func TestReplicaTailerSurvivesLogOutage(t *testing.T) {
	faults := faultpoint.New(1)
	h := newHarness(t, harnessConfig{replica: true, faults: faults})
	replica := h.replica
	k1 := h.do("SET", "k1", "v1")
	h.commit()
	h.mustReply(k1, "OK")
	h.apply()
	if replica.applied.Seq != h.log.CommittedTail().Seq {
		t.Fatalf("replica applied %d, want the committed tail %d", replica.applied.Seq, h.log.CommittedTail().Seq)
	}
	restores := replica.Stats().SnapshotRestores.Load()

	setLevel(faults, faultpoint.SiteLogUnavailable, true)
	h.apply()
	if replica.life.ready != nil || replica.life.timer == nil {
		t.Fatal("a tailer cut off from the log must wait on its backoff timer, not read again")
	}
	setLevel(faults, faultpoint.SiteLogUnavailable, false)
	k2 := h.do("SET", "k2", "v2")
	h.commit()
	h.mustReply(k2, "OK")

	// The backoff ends; the tailer reads again from its unchanged cursor.
	replica.clk.Advance(retryMax)
	h.turn(replica, input{kind: inRoleTimer})
	h.mustReply(h.submit(replica, true, "GET", "k2"), "v2")
	if got := replica.Stats().SnapshotRestores.Load(); got != restores {
		t.Fatalf("replica restored (%d -> %d) across a transient outage instead of reconnecting", restores, got)
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
