package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/netsim"
	"memorydb/internal/obs"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/txlog"
)

// TestClusterInfoPerAZLines checks that CLUSTER INFO surfaces each zone's
// transaction-log health: ack counts and ack-latency percentiles, one
// block per AZ.
func TestClusterInfoPerAZLines(t *testing.T) {
	c := testCluster(t, 1, 0)
	cl := c.Client()
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if v, err := cl.Do(ctx, "SET", "k"+itoa(i), "v"); err != nil || v.IsError() {
			t.Fatalf("SET: %v %v", v, err)
		}
	}

	info := clusterCmd(c, "CLUSTER", "INFO").Text()
	for az := 0; az < 3; az++ {
		for _, field := range []string{"_name:", "_acks_served:", "_acks_dropped:", "_ack_p50_usec:", "_ack_p99_usec:", "_ack_max_usec:"} {
			want := "az" + itoa(az) + field
			if !strings.Contains(info, want) {
				t.Errorf("CLUSTER INFO missing %q:\n%s", want, info)
			}
		}
	}
	// Writes committed through the log, so at least one zone served acks.
	if !strings.Contains(info, "_acks_served:") || strings.Count(info, "_acks_served:0\r\n") == 3 {
		t.Fatalf("no zone served any acks after writes:\n%s", info)
	}
	// Workloop pressure aggregates (totals across every node).
	for _, field := range []string{"cluster_exec_queue_depth_total:", "cluster_exec_queue_depth_max:"} {
		if !strings.Contains(info, field) {
			t.Errorf("CLUSTER INFO missing %q:\n%s", field, info)
		}
	}
}

// TestSharedRegistryForgetsStoppedNodes replaces a stopped replica three
// times under one registry: every live node keeps the same number of
// series, and no stopped node's label is left in /metrics.
func TestSharedRegistryForgetsStoppedNodes(t *testing.T) {
	m := obs.New(obs.Options{})
	c, err := New(Config{
		Name: "t", ReplicasPerShard: 1, Obs: m,
		LogService: txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: netsim.Zero{}}),
		Lease:      120 * time.Millisecond, Backoff: 160 * time.Millisecond, RenewEvery: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	sh := c.Shards()[0]
	if _, err := sh.WaitForPrimary(c.Clock(), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	// series counts /metrics lines per node label.
	series := func() map[string]int {
		var b strings.Builder
		m.WritePrometheus(&b)
		out := make(map[string]int)
		for _, line := range strings.Split(b.String(), "\n") {
			if _, rest, ok := strings.Cut(line, `node="`); ok {
				id, _, _ := strings.Cut(rest, `"`)
				out[id]++
			}
		}
		return out
	}
	perNode := series()[sh.Nodes()[0].ID()]
	if perNode == 0 {
		t.Fatal("no series carry a node label")
	}
	mon := &Monitor{Cluster: c}
	var stopped []string
	for range 3 {
		r := sh.Replicas()
		if len(r) == 0 {
			t.Fatal("no replica to stop")
		}
		r[0].Stop()
		stopped = append(stopped, r[0].ID())
		mon.Tick()
	}
	got := series()
	for _, id := range stopped {
		if got[id] != 0 {
			t.Errorf("stopped node %s still has %d series", id, got[id])
		}
	}
	for _, n := range sh.Nodes() {
		if got[n.ID()] != perNode {
			t.Errorf("live node %s has %d series, want %d", n.ID(), got[n.ID()], perNode)
		}
	}
	if len(got) != len(sh.Nodes()) || mon.Replacements() != 3 {
		t.Errorf("labels %v for %d live nodes after %d replacements", got, len(sh.Nodes()), mon.Replacements())
	}
}

// TestBuilderHealthPerShard: two shards share one snapshot Manager and
// only the first shard's builder takes a full. Every node's INFO and
// /metrics show its own shard's builder, not whichever builder wrote last.
func TestBuilderHealthPerShard(t *testing.T) {
	m := obs.New(obs.Options{})
	snaps := snapshot.NewManager(s3.New(), "snapshots")
	c, err := New(Config{
		Name: "t", NumShards: 2, Obs: m, Snapshots: snaps,
		LogService: txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: netsim.Zero{}}),
		Lease:      120 * time.Millisecond, Backoff: 160 * time.Millisecond, RenewEvery: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	for _, sh := range c.Shards() {
		if _, err := sh.WaitForPrimary(c.Clock(), 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	first := c.Shards()[0]
	if _, err := (&snapshot.Builder{Manager: snaps, Log: first.Log, ShardID: first.ID, EngineVersion: 1}).Full(ctx); err != nil {
		t.Fatal(err)
	}
	var metrics strings.Builder
	m.WritePrometheus(&metrics)
	for i, sh := range c.Shards() {
		fulls := itoa(1 - i)
		for _, n := range sh.Nodes() {
			info, err := n.Do(ctx, [][]byte{[]byte("INFO")})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(info.Text(), "\r\nsnapshot_compactions_total:"+fulls+"\r\n") {
				t.Errorf("%s of %s: INFO shows another shard's fulls, want %s:\n%s", n.ID(), sh.ID, fulls, info.Text())
			}
			if series := "memorydb_snapshot_compactions_total{node=\"" + n.ID() + "\"} " + fulls + "\n"; !strings.Contains(metrics.String(), series) {
				t.Errorf("/metrics has no %q", series)
			}
		}
	}
}
