package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/election"
	"memorydb/internal/netsim"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/txlog"
)

// TestCrashRestartSilentLogFailover pins the deadline arm of the tailer's
// park: once the primary is killed on an otherwise silent log nothing will
// ever signal a commit again, and the caught-up, parked replica must still
// wake when its backoff window elapses, campaign and be promoted.
func TestCrashRestartSilentLogFailover(t *testing.T) {
	const backoff = 500 * time.Millisecond
	svc := txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: netsim.Zero{}})
	c, err := New(Config{
		Name: "silent", NumShards: 1, ReplicasPerShard: 1, LogService: svc,
		Lease: 400 * time.Millisecond, Backoff: backoff, RenewEvery: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	dumpTimelineOnFailure(t, c)
	sh := c.Shards()[0]
	p, err := sh.WaitForPrimary(c.Clock(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := c.Client().Do(context.Background(), "SET", "k", "v"); err != nil || v.IsError() {
		t.Fatalf("seed write: %v %v", v, err)
	}
	replica := sh.Replicas()[0]
	if err := waitCaughtUp(c.Clock(), sh, replica); err != nil {
		t.Fatal(err)
	}

	if err := c.Kill(p.ID()); err != nil {
		t.Fatal(err)
	}
	tail := sh.Log.CommittedTail()
	if !waitNode(replica, 2*backoff, func() bool { return replica.Role() == election.RolePrimary }) {
		t.Fatalf("parked replica not promoted %v after the primary died: nothing woke it", 2*backoff)
	}
	if e, ok := sh.Log.Get(txlog.EntryID{Seq: tail.Seq + 1}); !ok || e.Type != txlog.EntryLeadership {
		t.Fatalf("entry after the silent tail is %v (found %v), want the replica's leadership claim", e.Type, ok)
	}
}

// TestCrashRestartMixedVersionReplica is the mixed-version crash schedule
// (§7.1): an engine-v1 replica is killed, the rest of the shard moves to
// v2 and keeps committing under load, and the replica comes back still at
// v1. It must install the prefix it understands, stall before the first
// v2 data entry — refusing clients, never campaigning, never applying it —
// and, restarted at v2, catch up from the log with no gap.
func TestCrashRestartMixedVersionReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short mode")
	}
	seed := crashSeed(t)
	svc := txlog.NewService(txlog.Config{
		Clock:          clock.NewReal(),
		CommitLatency:  netsim.NewUniform(100*time.Microsecond, time.Millisecond, seed),
		SegmentEntries: 16,
	})
	const backoff = 140 * time.Millisecond
	c, err := New(Config{
		Name: "mixed", NumShards: 1, ReplicasPerShard: 2,
		LogService: svc, Snapshots: snapshot.NewManager(s3.New(), "snaps"),
		EngineVersion: 1,
		Lease:         100 * time.Millisecond, Backoff: backoff, RenewEvery: 25 * time.Millisecond,
		ChecksumEvery: 16, RetrySeed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	dumpTimelineOnFailure(t, c)
	sh := c.Shards()[0]
	oldPrimary, err := sh.WaitForPrimary(c.Clock(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	provisionAt := func(v uint32) {
		c.mu.Lock()
		c.cfg.EngineVersion = v
		c.mu.Unlock()
	}

	// Load for the whole schedule: one key per write, so every
	// acknowledged write is checkable at the end.
	ctx := context.Background()
	var (
		ackMu sync.Mutex
		acked []string
	)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		cl := c.Client()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			key := fmt.Sprintf("mv-%d", i)
			cctx, cancel := context.WithTimeout(ctx, 400*time.Millisecond)
			v, err := cl.Do(cctx, "SET", key, key)
			cancel()
			if err == nil && !v.IsError() {
				ackMu.Lock()
				acked = append(acked, key)
				ackMu.Unlock()
			}
		}
	}()
	ackedCount := func() int {
		ackMu.Lock()
		defer ackMu.Unlock()
		return len(acked)
	}
	waitAcked := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ackedCount() < n; {
			if time.Now().After(deadline) {
				t.Fatalf("only %d writes acknowledged, want %d", ackedCount(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Kill a v1 replica once it holds some v1 data.
	waitAcked(20)
	reps := sh.Replicas()
	victim, other := reps[0].ID(), reps[1].ID()
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}

	// The rest of the shard moves to v2: the other replica first, then a
	// collaborative hand-over and the old primary's replacement.
	provisionAt(2)
	upgraded, err := c.ReplaceNode(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := waitCaughtUp(c.Clock(), sh, upgraded); err != nil {
		t.Fatal(err)
	}
	if err := oldPrimary.StepDown(ctx); err != nil {
		t.Fatal(err)
	}
	newPrimary, err := sh.WaitForPrimary(c.Clock(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if newPrimary.EngineVersion() != 2 {
		t.Fatalf("primary %s runs v%d after the hand-over, want v2", newPrimary.ID(), newPrimary.EngineVersion())
	}
	if _, err := c.ReplaceNode(oldPrimary.ID()); err != nil {
		t.Fatal(err)
	}
	waitAcked(ackedCount() + 20) // v2 data entries are committed

	// Restart the victim still at v1.
	provisionAt(1)
	v1, err := c.Restart(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !waitNode(v1, 5*time.Second, v1.Stalled) {
		t.Fatalf("restarted v1 replica never stalled (applied %d, tail %d)", v1.AppliedSeq(), sh.Log.CommittedTail().Seq)
	}
	firstV2 := uint64(0)
	for r := sh.Log.NewReader(txlog.ZeroID); firstV2 == 0; {
		e, ok, err := r.TryNext()
		if err != nil || !ok {
			t.Fatalf("no v2 data entry in the log: %v %v", ok, err)
		}
		if e.Type == txlog.EntryData && e.EngineVersion == 2 {
			firstV2 = e.ID.Seq
		}
	}
	if got := v1.AppliedSeq(); got != firstV2-1 {
		t.Fatalf("stalled v1 replica applied through %d, want the prefix up to %d (first v2 data entry is %d)", got, firstV2-1, firstV2)
	}
	v, err := v1.Do(ctx, [][]byte{[]byte("GET"), []byte("mv-0")})
	if err != nil || !v.IsError() || !strings.HasPrefix(v.Text(), "CLUSTERDOWN") || !strings.Contains(v.Text(), "stalled") {
		t.Fatalf("stalled replica answered %q (%v), want -CLUSTERDOWN … stalled", v.Text(), err)
	}
	waitAcked(ackedCount() + 20)
	time.Sleep(2 * backoff)
	if got := v1.AppliedSeq(); got != firstV2-1 {
		t.Fatalf("stalled v1 replica moved to %d: it applied a v2 entry", got)
	}
	if v1.Role() != election.RoleReplica || v1.Stats().Promotions.Load() != 0 {
		t.Fatalf("stalled v1 replica campaigned: role %v, %d promotions", v1.Role(), v1.Stats().Promotions.Load())
	}

	// Restart it at v2: it catches up from the log.
	provisionAt(2)
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	v2, err := c.Restart(victim)
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	writer.Wait()
	if err := waitCaughtUp(c.Clock(), sh, v2); err != nil {
		t.Fatal(err)
	}
	if v2.Stalled() {
		t.Fatal("v2 replica stalled on its own version's entries")
	}
	for _, n := range sh.Nodes() {
		if g := n.Stats().LogGapRetries.Load(); g != 0 {
			t.Fatalf("node %s: %d log_gap_retries, want 0", n.ID(), g)
		}
	}
	for _, key := range acked {
		got, _, err := v2.DoRead(ctx, [][]byte{[]byte("GET"), []byte(key)}, core.ReadOpts{Consistency: core.ReadEventual})
		if err != nil || got.Text() != key {
			t.Fatalf("acknowledged write %s on the caught-up replica: %q %v", key, got.Text(), err)
		}
	}
}
