package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/crc16"
	"memorydb/internal/netsim"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/txlog"
)

func upgradableCluster(t *testing.T, version uint32) *Cluster {
	t.Helper()
	svc := txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: netsim.Zero{}})
	snaps := snapshot.NewManager(s3.New(), "snaps")
	c, err := New(Config{
		Name: "up", NumShards: 1, ReplicasPerShard: 1,
		LogService: svc, Snapshots: snaps,
		EngineVersion: version,
		Lease:         120 * time.Millisecond, Backoff: 160 * time.Millisecond,
		RenewEvery: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if _, err := c.Shards()[0].WaitForPrimary(c.Clock(), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRollingUpgradePreservesDataAndAvailability(t *testing.T) {
	c := upgradableCluster(t, 2)
	ctx := context.Background()
	cl := c.Client()
	for i := 0; i < 50; i++ {
		if v, err := cl.Do(ctx, "SET", fmt.Sprintf("k%d", i), "v"); err != nil || v.IsError() {
			t.Fatalf("seed: %v %v", v, err)
		}
	}
	if err := c.RollingUpgrade(ctx, 3); err != nil {
		t.Fatalf("RollingUpgrade: %v", err)
	}
	// Every node now runs the new version.
	versions := c.EngineVersions()
	if len(versions) != 1 || versions[3] != 2 {
		t.Fatalf("versions after upgrade = %v", versions)
	}
	// All data survived the full fleet replacement.
	for i := 0; i < 50; i++ {
		v, err := cl.Do(ctx, "GET", fmt.Sprintf("k%d", i))
		if err != nil || v.Text() != "v" {
			t.Fatalf("k%d after upgrade: %v %v", i, v, err)
		}
	}
	// Writes keep working on the upgraded primary.
	if v, err := cl.Do(ctx, "SET", "post-upgrade", "yes"); err != nil || v.IsError() {
		t.Fatalf("post-upgrade write: %v %v", v, err)
	}
}

func TestMinEngineVersionDuringMixedFleet(t *testing.T) {
	c := upgradableCluster(t, 2)
	if got := c.MinEngineVersion(); got != 2 {
		t.Fatalf("MinEngineVersion = %d", got)
	}
	// Replace one replica at a newer version by bumping cluster config.
	c.mu.Lock()
	c.cfg.EngineVersion = 3
	c.mu.Unlock()
	sh := c.Shards()[0]
	reps := sh.Replicas()
	if len(reps) == 0 {
		t.Fatal("no replica")
	}
	if _, err := c.ReplaceNode(reps[0].ID()); err != nil {
		t.Fatal(err)
	}
	versions := c.EngineVersions()
	if versions[2] != 1 || versions[3] != 1 {
		t.Fatalf("mixed versions = %v", versions)
	}
	// Off-box snapshots must pin to the OLD version (§7.1).
	if got := c.MinEngineVersion(); got != 2 {
		t.Fatalf("MinEngineVersion = %d during mixed fleet", got)
	}
}

func TestAddRemoveReplica(t *testing.T) {
	c := testCluster(t, 1, 0)
	ctx := context.Background()
	cl := c.Client()
	for i := 0; i < 20; i++ {
		cl.Do(ctx, "SET", fmt.Sprintf("k%d", i), "v")
	}
	sh := c.Shards()[0]
	n, err := c.addNode(sh)
	if err != nil {
		t.Fatal(err)
	}
	// The new replica restores from durable sources and catches up.
	if err := waitCaughtUp(c.Clock(), sh, n); err != nil {
		t.Fatal(err)
	}
	if len(sh.Replicas()) != 1 {
		t.Fatalf("replicas = %d", len(sh.Replicas()))
	}
	if err := c.RemoveReplica(sh.ID); err != nil {
		t.Fatal(err)
	}
	if len(sh.Replicas()) != 0 {
		t.Fatal("replica not removed")
	}
	if err := c.RemoveReplica(sh.ID); err == nil {
		t.Fatal("removing from empty replica set succeeded")
	}
}

func TestScaleOutAddShardAndMigrate(t *testing.T) {
	c := testCluster(t, 1, 0)
	ctx := context.Background()
	cl := c.Client()
	slot := uint16(0)
	// Find a key in slot 0's... easier: write tagged keys and migrate
	// their slot to the new shard.
	for i := 0; i < 10; i++ {
		if v, err := cl.Do(ctx, "SET", fmt.Sprintf("{scale}k%d", i), "v"); err != nil || v.IsError() {
			t.Fatalf("seed: %v %v", v, err)
		}
	}
	slot = slotOf("{scale}x")
	newShard, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newShard.WaitForPrimary(c.Clock(), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(c.OwnedSlots(newShard.ID)) != 0 {
		t.Fatal("fresh shard must own no slots")
	}
	if err := c.MigrateSlot(ctx, slot, newShard.ID); err != nil {
		t.Fatal(err)
	}
	if c.SlotOwner(slot) != newShard {
		t.Fatal("slot not transferred")
	}
	for i := 0; i < 10; i++ {
		v, err := cl.Do(ctx, "GET", fmt.Sprintf("{scale}k%d", i))
		if err != nil || v.Text() != "v" {
			t.Fatalf("post-scale-out read: %v %v", v, err)
		}
	}
}

func slotOf(key string) uint16 { return crc16.Slot(key) }
