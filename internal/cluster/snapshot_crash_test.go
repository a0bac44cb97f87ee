package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"memorydb/internal/core"
	"memorydb/internal/faultpoint"
	"memorydb/internal/snapshot"
)

// Snapshot-crash schedules for the forkless checkpointer. Each test kills
// or damages the builder's delta/compaction pipeline at a seeded fault
// site, then proves the cluster-level contract: a killed-and-restarted
// primary restores the exact acknowledged state from the full+delta chain
// plus log replay, with zero trimmed-gap retries — no matter where in the
// chain's production the schedule struck.

// snapshotCrashHarness provisions a crash cluster plus a forkless builder
// wired to the shard's log through its own seeded fault registry.
func snapshotCrashHarness(t *testing.T, deltaInterval uint64, compactEvery int) (
	*Cluster, *snapshot.Manager, *snapshot.Builder, *faultpoint.Registry) {
	t.Helper()
	seed := crashSeed(t)
	c, snaps, _ := crashCluster(t, seed)
	bFaults := faultpoint.New(seed ^ 0xb111)
	b := &snapshot.Builder{
		Manager: snaps, Log: c.Shards()[0].Log, ShardID: c.Shards()[0].ID,
		EngineVersion: 1, DeltaInterval: deltaInterval, CompactEvery: compactEvery,
		Faults: bFaults,
	}
	return c, snaps, b, bFaults
}

// snapSet writes one key through the router and fails the test if the
// write is not acknowledged.
func snapSet(t *testing.T, c *Cluster, k, v string) {
	t.Helper()
	cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if rv, err := c.Client().Do(cctx, "SET", k, v); err != nil || rv.IsError() {
		t.Fatalf("SET %s: %v %v", k, rv, err)
	}
}

// snapRestartPrimary kills the current primary and restarts it, returning
// the restarted node after a primary is routable again.
func snapRestartPrimary(t *testing.T, c *Cluster) *core.Node {
	t.Helper()
	sh := c.Shards()[0]
	p, err := sh.WaitForPrimary(c.Clock(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(p.ID()); err != nil {
		t.Fatal(err)
	}
	restarted, err := c.Restart(p.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.WaitForPrimary(c.Clock(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return restarted
}

// snapAudit reads every key in want back through the router and checks
// values, then asserts no node ever saw a trimmed gap.
func snapAudit(t *testing.T, c *Cluster, want map[string]string) {
	t.Helper()
	for k, v := range want {
		cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		got, err := c.Client().Do(cctx, "GET", k)
		cancel()
		if err != nil || got.Text() != v {
			t.Fatalf("GET %s = %q (%v), want %q", k, got.Text(), err, v)
		}
	}
	for _, n := range c.Shards()[0].Nodes() {
		if gaps := n.Stats().LogGapRetries.Load(); gaps != 0 {
			t.Errorf("node %s hit %d trimmed-gap retries", n.ID(), gaps)
		}
	}
}

// TestSnapshotCrashMidDelta: the builder dies at snapshot.delta.build with
// a serialized delta in hand but nothing uploaded. The chain in S3 is
// untouched, the next tick re-bootstraps from it, and a primary restart
// restores every acknowledged write.
func TestSnapshotCrashMidDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short mode")
	}
	c, snaps, b, bFaults := snapshotCrashHarness(t, 4, 100)
	ctx := context.Background()
	want := map[string]string{}
	fill := func(tag string, n int) {
		for i := 0; i < n; i++ {
			k, v := fmt.Sprintf("md-%s-%d", tag, i), tag
			snapSet(t, c, k, v)
			want[k] = v
		}
	}

	fill("base", 4)
	if err := b.Tick(ctx); err != nil { // bootstrap full snapshot
		t.Fatal(err)
	}
	if snaps.Health(b.ShardID).Compactions.Load() != 1 {
		t.Fatal("setup: no base full snapshot emitted")
	}

	fill("crash", 4)
	bFaults.Arm(faultpoint.SiteDeltaBuild, faultpoint.Crash, 0)
	if err := b.Tick(ctx); !errors.Is(err, snapshot.ErrBuilderCrashed) {
		t.Fatalf("tick with armed delta-build crash returned %v, want ErrBuilderCrashed", err)
	}
	if b.Stats().Rebootstraps != 1 {
		t.Fatalf("Rebootstraps = %d after crash, want 1", b.Stats().Rebootstraps)
	}
	// The crash uploaded nothing: the chain still ends at the base full.
	if got := snaps.Health(b.ShardID).DeltasEmitted.Load(); got != 0 {
		t.Fatalf("crashed delta was counted as emitted (%d)", got)
	}

	// Recovery: the next tick rebuilds the materialized copy from the
	// chain, re-drains the lost suffix, and lands the delta.
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if got := snaps.Health(b.ShardID).DeltasEmitted.Load(); got != 1 {
		t.Fatalf("DeltasEmitted = %d after recovery tick, want 1", got)
	}

	fill("post", 2)
	restarted := snapRestartPrimary(t, c)
	snapAudit(t, c, want)
	if restarted.Stats().SnapshotRestores.Load() == 0 {
		t.Fatal("restarted primary never restored from the snapshot chain")
	}
}

// TestSnapshotCrashMidCompaction: the builder dies at snapshot.compact
// with the replacement full snapshot serialized but not uploaded. The old
// full+delta chain stays authoritative, restores keep working off it, and
// the retried compaction lands on the next cadence.
func TestSnapshotCrashMidCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short mode")
	}
	c, snaps, b, bFaults := snapshotCrashHarness(t, 3, 1)
	ctx := context.Background()
	want := map[string]string{}
	fill := func(tag string, n int) {
		for i := 0; i < n; i++ {
			k, v := fmt.Sprintf("mc-%s-%d", tag, i), tag
			snapSet(t, c, k, v)
			want[k] = v
		}
	}

	fill("base", 3)
	if err := b.Tick(ctx); err != nil { // bootstrap full
		t.Fatal(err)
	}
	fill("delta", 3)
	if err := b.Tick(ctx); err != nil { // delta 1 (CompactEvery=1 → next emit compacts)
		t.Fatal(err)
	}
	if snaps.Health(b.ShardID).DeltasEmitted.Load() != 1 {
		t.Fatal("setup: chain has no delta to compact")
	}

	fill("crash", 3)
	bFaults.Arm(faultpoint.SiteCompact, faultpoint.Crash, 0)
	if err := b.Tick(ctx); !errors.Is(err, snapshot.ErrBuilderCrashed) {
		t.Fatalf("tick with armed compact crash returned %v, want ErrBuilderCrashed", err)
	}
	// The old chain survived the failed compaction: full + 1 delta.
	if chain, ok, err := snaps.Resolve(c.Shards()[0].ID, false); err != nil || !ok || chain.Depth != 1 {
		t.Fatalf("chain after compact crash: ok=%v depth=%d err=%v, want intact depth 1",
			ok, chain.Depth, err)
	}

	// A restart in this window restores through the *old* chain.
	restarted := snapRestartPrimary(t, c)
	snapAudit(t, c, want)
	if restarted.Stats().SnapshotRestores.Load() == 0 {
		t.Fatal("restarted primary never restored from the pre-compaction chain")
	}

	// The re-bootstrapped builder completes the compaction it died in.
	before := snaps.Health(b.ShardID).Compactions.Load()
	fill("retry", 3)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && snaps.Health(b.ShardID).Compactions.Load() == before {
		if err := b.Tick(ctx); err != nil {
			t.Fatal(err)
		}
		fill(fmt.Sprintf("pad%d", time.Now().UnixNano()%1000), 1)
	}
	if snaps.Health(b.ShardID).Compactions.Load() == before {
		t.Fatal("compaction never completed after the crash")
	}
	snapAudit(t, c, want)
}

// TestSnapshotCrashCorruptDeltaFallback: silent bit rot inside a chain
// link (injected at snapshot.delta.build, so the corrupt delta uploads
// "successfully" and gains a good-looking child). Restore must detect the
// rotten link by checksum, quarantine it, fall back to the longest intact
// prefix — the base full snapshot — and recover the rest by log replay.
func TestSnapshotCrashCorruptDeltaFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short mode")
	}
	c, snaps, b, bFaults := snapshotCrashHarness(t, 3, 100)
	ctx := context.Background()
	want := map[string]string{}
	fill := func(tag string, n int) {
		for i := 0; i < n; i++ {
			k, v := fmt.Sprintf("cd-%s-%d", tag, i), tag
			snapSet(t, c, k, v)
			want[k] = v
		}
	}

	fill("base", 3)
	if err := b.Tick(ctx); err != nil { // full
		t.Fatal(err)
	}
	fill("rot", 3)
	bFaults.Arm(faultpoint.SiteDeltaBuild, faultpoint.Corrupt, 0)
	if err := b.Tick(ctx); err != nil { // delta 1: bit-rotted, silently uploaded
		t.Fatal(err)
	}
	fill("child", 3)
	if err := b.Tick(ctx); err != nil { // delta 2: intact, but its parent is rotten
		t.Fatal(err)
	}
	if snaps.Health(b.ShardID).DeltasEmitted.Load() != 2 {
		t.Fatal("setup: expected two deltas on the chain")
	}

	tornBefore := snaps.TornDetected()
	restarted := snapRestartPrimary(t, c)
	snapAudit(t, c, want)
	if got := snaps.TornDetected(); got <= tornBefore {
		t.Fatalf("TornDetected = %d, want > %d (rotten link quarantined during restore)", got, tornBefore)
	}
	// The fallback surfaced on the restarted node's own counters too: it
	// had to skip the intact-but-orphaned tip delta.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && restarted.Stats().TornSnapshotsDetected.Load() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if restarted.Stats().TornSnapshotsDetected.Load() == 0 {
		t.Fatal("restarted primary never counted the damaged chain it fell back past")
	}
}

// TestSnapshotCrashDeepChainRestore: a long full+delta chain (including
// deletions) with the log trimmed up to the chain base — restore has no
// choice but to walk the whole chain, apply every delta in order
// (tombstones included), and replay only the suffix above the tip.
func TestSnapshotCrashDeepChainRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short mode")
	}
	c, snaps, b, _ := snapshotCrashHarness(t, 4, 100)
	sh := c.Shards()[0]
	ctx := context.Background()
	want := map[string]string{}
	deleted := make([]string, 0, 8)

	// Prelude: push the chain base past at least one sealed segment
	// (crashCluster seals every 16 entries) so the trim leg below has
	// whole segments to drop beneath the base.
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("deep-pre-%d", i)
		snapSet(t, c, k, "pre")
		want[k] = "pre"
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 4; i++ {
			k, v := fmt.Sprintf("deep-%d-%d", round, i), fmt.Sprintf("r%d", round)
			snapSet(t, c, k, v)
			want[k] = v
		}
		if round > 0 {
			// Delete one key from an earlier round so deep deltas carry
			// tombstones that must not be resurrected by the base image.
			victim := fmt.Sprintf("deep-%d-0", round-1)
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			if rv, err := c.Client().Do(cctx, "DEL", victim); err != nil || rv.IsError() {
				t.Fatalf("DEL %s: %v %v", victim, rv, err)
			}
			cancel()
			delete(want, victim)
			deleted = append(deleted, victim)
		}
		if err := b.Tick(ctx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	chain, ok, err := snaps.Resolve(sh.ID, false)
	if err != nil || !ok {
		t.Fatalf("chain: ok=%v err=%v", ok, err)
	}
	if chain.Depth < 5 {
		t.Fatalf("chain depth %d, want >= 5 (deep-chain schedule)", chain.Depth)
	}

	// The pass after the base full trimmed everything it covers: the
	// restore below cannot substitute log replay for the chain prefix.
	if sh.Log.SegmentStats().Trimmed == 0 {
		t.Fatalf("setup: nothing trimmed below the chain base %v", chain.Base.LogPos)
	}

	restarted := snapRestartPrimary(t, c)
	snapAudit(t, c, want)
	for _, k := range deleted {
		cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		v, err := c.Client().Do(cctx, "GET", k)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !v.Null {
			t.Fatalf("deleted key %s resurrected by deep-chain restore (= %q)", k, v.Text())
		}
	}
	if restarted.Stats().SnapshotRestores.Load() == 0 {
		t.Fatal("restarted primary never restored from the chain")
	}
	if b.Stats().Rebootstraps != 0 {
		t.Fatalf("builder re-bootstrapped %d times — trim passed its own chain base", b.Stats().Rebootstraps)
	}
}
