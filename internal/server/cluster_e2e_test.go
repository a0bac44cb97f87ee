package server

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/cluster"
	"memorydb/internal/crc16"
	"memorydb/internal/netsim"
	"memorydb/internal/resp"
	"memorydb/internal/txlog"
)

// startCluster boots a cluster of shards × (1 + replicas) nodes on its
// own log service, with the given commit latency, and waits until every
// shard has a primary.
func startCluster(t testing.TB, shards, replicas int, commit netsim.LatencyModel) *cluster.Cluster {
	t.Helper()
	return startClusterOn(t, cluster.Config{NumShards: shards, ReplicasPerShard: replicas}, commit)
}

// startClusterOn is startCluster for the shape and release rule cfg
// names.
func startClusterOn(t testing.TB, cfg cluster.Config, commit netsim.LatencyModel) *cluster.Cluster {
	t.Helper()
	cfg.Name, cfg.LogService = "e2e", txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: commit})
	cfg.Lease, cfg.Backoff, cfg.RenewEvery = 200*time.Millisecond, 260*time.Millisecond, 50*time.Millisecond
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	for _, sh := range c.Shards() {
		if _, err := sh.WaitForPrimary(c.Clock(), 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// startClusterServer boots a 2-shard cluster behind one TCP endpoint.
func startClusterServer(t *testing.T) (*Server, *cluster.Cluster) {
	t.Helper()
	c := startCluster(t, 2, 1, netsim.Zero{})
	return serve(t, ClusterBackend{Cluster: c}), c
}

// TestClusterEndToEndOverTCP drives the full stack — TCP, RESP, routing,
// node, group commit, log — from a plain client connection.
func TestClusterEndToEndOverTCP(t *testing.T) {
	srv, _ := startClusterServer(t)
	c := dial(t, srv.Addr().String())

	// Keys spread across shards; the proxy backend routes transparently.
	for i := 0; i < 50; i++ {
		if v := c.do(t, "SET", fmt.Sprintf("k%d", i), "v"); v.Text() != "OK" {
			t.Fatalf("SET k%d = %v", i, v)
		}
	}
	for i := 0; i < 50; i++ {
		if v := c.do(t, "GET", fmt.Sprintf("k%d", i)); v.Text() != "v" {
			t.Fatalf("GET k%d = %v", i, v)
		}
	}

	// CLUSTER introspection over the wire.
	v := c.do(t, "CLUSTER", "SLOTS")
	if v.Type != resp.Array || len(v.Array) != 2 {
		t.Fatalf("CLUSTER SLOTS = %v", v)
	}
	if v := c.do(t, "CLUSTER", "KEYSLOT", "foo"); v.Int != 12182 {
		t.Fatalf("CLUSTER KEYSLOT = %v", v)
	}
	info := c.do(t, "CLUSTER", "INFO").Text()
	if !strings.Contains(info, "cluster_state:ok") {
		t.Fatalf("CLUSTER INFO = %q", info)
	}

	// MULTI/EXEC against hash-tagged (single-slot) keys.
	c.do(t, "MULTI")
	c.do(t, "SET", "{tx}a", "1")
	c.do(t, "INCR", "{tx}a")
	v = c.do(t, "EXEC")
	if v.Type != resp.Array || len(v.Array) != 2 || v.Array[1].Int != 2 {
		t.Fatalf("EXEC = %v", v)
	}
}

// TestClusterFailoverBehindTCP: kill a shard primary while a client
// keeps using the same connection; after the hand-over the same endpoint
// serves the same data.
func TestClusterFailoverBehindTCP(t *testing.T) {
	srv, cl := startClusterServer(t)
	c := dial(t, srv.Addr().String())
	if v := c.do(t, "SET", "stable", "value"); v.Text() != "OK" {
		t.Fatalf("SET = %v", v)
	}
	// Kill every primary.
	for _, sh := range cl.Shards() {
		if p, ok := sh.Primary(); ok {
			p.Stop()
		}
	}
	for _, sh := range cl.Shards() {
		if _, err := sh.WaitForPrimary(cl.Clock(), 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v := c.do(t, "GET", "stable")
		if v.Text() == "value" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("data unreachable after failover: %v", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A READONLY MULTI through the cluster endpoint: a transaction of reads
// only is served by the shard's replica, and one with a write in it by the
// primary, after the replica bounces it.
func TestClusterReadonlyMultiExec(t *testing.T) {
	checkReadonlyMultiExec(t, cluster.Config{NumShards: 2, ReplicasPerShard: 1})
}

// TestRedisModeReadonlyReadsReplica: Redis mode has replicas, and a
// READONLY connection's reads take the replica read path as in Redis
// Cluster. A WAIT, as a Redis client sends before it reads its write off a
// replica, holds until the log has the SET.
func TestRedisModeReadonlyReadsReplica(t *testing.T) {
	checkReadonlyMultiExec(t, cluster.Config{NumShards: 1, ReplicasPerShard: 1, AckOnExecute: true})
}

func checkReadonlyMultiExec(t *testing.T, cfg cluster.Config) {
	t.Helper()
	cl := startClusterOn(t, cfg, netsim.Zero{})
	srv := serve(t, ClusterBackend{Cluster: cl})
	c := dial(t, srv.Addr().String())
	if v := c.do(t, "SET", "{ro}a", "1"); v.Text() != "OK" {
		t.Fatalf("SET = %v", v)
	}
	if v := c.do(t, "WAIT", "1", "0"); v.IsError() {
		t.Fatalf("WAIT = %v", v)
	}
	sh := cl.SlotOwner(crc16.Slot("{ro}a"))
	primary, _ := sh.Primary()
	replica := sh.Replicas()[0]
	ctx := context.Background()
	if err := replica.WaitApplied(ctx, sh.Log.CommittedTail().Seq); err != nil {
		t.Fatal(err)
	}
	st := replica.Stats()
	c.do(t, "READONLY")

	served := st.ReplicaReadsServed.Load()
	c.do(t, "MULTI")
	c.do(t, "GET", "{ro}a")
	c.do(t, "GET", "{ro}b")
	if v := c.do(t, "EXEC"); v.Type != resp.Array || len(v.Array) != 2 || v.Array[0].Text() != "1" || !v.Array[1].Null {
		t.Fatalf("ack on execute %v: read-only EXEC = %v", cfg.AckOnExecute, v)
	}
	if st.ReplicaReadsServed.Load() == served {
		t.Fatalf("ack on execute %v: the read-only transaction was not served by the replica", cfg.AckOnExecute)
	}

	served, redirected := st.ReplicaReadsServed.Load(), st.ReplicaReadsRedirected.Load()
	mutations := primary.Stats().Mutations.Load()
	c.do(t, "MULTI")
	c.do(t, "GET", "{ro}a")
	c.do(t, "SET", "{ro}a", "2")
	if v := c.do(t, "EXEC"); v.Type != resp.Array || len(v.Array) != 2 || v.Array[0].Text() != "1" || v.Array[1].Text() != "OK" {
		t.Fatalf("ack on execute %v: EXEC with a write = %v", cfg.AckOnExecute, v)
	}
	if st.ReplicaReadsServed.Load() != served || st.ReplicaReadsRedirected.Load() == redirected {
		t.Fatalf("ack on execute %v: the replica did not bounce the transaction with a write to the primary", cfg.AckOnExecute)
	}
	if primary.Stats().Mutations.Load() == mutations {
		t.Fatalf("ack on execute %v: the primary did not run the transaction with a write", cfg.AckOnExecute)
	}
}

// TestClusterCrossSlotExecAppliesNothing: through a 2-shard endpoint, a
// MULTI/EXEC whose keys live on different shards, or that holds a
// keyspace command, answers CROSSSLOT and applies none of its writes; one
// whose keys share a slot runs, its keyless commands included.
func TestClusterCrossSlotExecAppliesNothing(t *testing.T) {
	srv, c := startClusterServer(t)
	if c.SlotOwner(crc16.Slot([]byte("a"))) == c.SlotOwner(crc16.Slot([]byte("b"))) {
		t.Fatal("a and b share a shard")
	}
	cl := dial(t, srv.Addr().String())
	cl.do(t, "MULTI")
	cl.do(t, "SET", "a", "1")
	cl.do(t, "SET", "b", "2")
	if v := cl.do(t, "EXEC"); !strings.HasPrefix(v.Text(), "CROSSSLOT") {
		t.Fatalf("cross-slot EXEC = %v, want CROSSSLOT", v)
	}
	for _, k := range []string{"a", "b"} {
		if v := cl.do(t, "GET", k); !v.Null {
			t.Errorf("GET %s = %v after a refused EXEC", k, v)
		}
	}
	// A keyspace command spans every shard, so no one shard can run it
	// atomically with the rest of a batch.
	cl.do(t, "MULTI")
	cl.do(t, "SET", "a", "1")
	cl.do(t, "FLUSHALL")
	if v := cl.do(t, "EXEC"); !strings.HasPrefix(v.Text(), "CROSSSLOT") {
		t.Fatalf("EXEC with FLUSHALL = %v, want CROSSSLOT", v)
	}
	if v := cl.do(t, "GET", "a"); !v.Null {
		t.Errorf("GET a = %v after a refused EXEC", v)
	}
	cl.do(t, "MULTI")
	cl.do(t, "PING")
	cl.do(t, "SET", "{t}b", "2")
	cl.do(t, "SET", "{t}a", "1")
	if v := cl.do(t, "EXEC"); len(v.Array) != 3 || v.Array[2].Text() != "OK" {
		t.Fatalf("one-slot EXEC = %v", v)
	}
	if v := cl.do(t, "GET", "{t}b"); v.Text() != "2" {
		t.Fatalf("GET {t}b = %v", v)
	}
}

// TestClusterWideKeylessCommands: through a 2-shard endpoint, DBSIZE
// and KEYS answer for both shards, FLUSHALL empties both, and SCAN and
// RANDOMKEY answer an error rather than one shard's reply.
func TestClusterWideKeylessCommands(t *testing.T) {
	srv, c := startClusterServer(t)
	cl := dial(t, srv.Addr().String())
	var keys []string
	perShard := map[*cluster.Shard]int{}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%02d", i)
		cl.do(t, "SET", k, "v")
		keys = append(keys, k)
		perShard[c.SlotOwner(crc16.Slot([]byte(k)))]++
	}
	if len(perShard) != 2 {
		t.Fatalf("keys on %d shards, want 2", len(perShard))
	}
	if v := cl.do(t, "DBSIZE"); v.Int != 30 {
		t.Errorf("DBSIZE = %v, want 30", v)
	}
	var got []string
	for _, k := range cl.do(t, "KEYS", "*").Array {
		got = append(got, k.Text())
	}
	if strings.Join(got, " ") != strings.Join(keys, " ") {
		t.Errorf("KEYS * = %v, want %v", got, keys)
	}
	for _, bad := range [][]string{{"SCAN", "0"}, {"RANDOMKEY"}, {"KEYS"}, {"DBSIZE", "x"}} {
		if v := cl.do(t, bad...); !v.IsError() {
			t.Errorf("%v = %v, want an error", bad, v)
		}
	}
	if v := cl.do(t, "FLUSHALL"); v.Text() != "OK" {
		t.Fatalf("FLUSHALL = %v", v)
	}
	for _, k := range keys {
		if v := cl.do(t, "GET", k); !v.Null {
			t.Fatalf("GET %s = %v after FLUSHALL", k, v)
		}
	}
	if v := cl.do(t, "DBSIZE"); v.Int != 0 {
		t.Errorf("DBSIZE = %v after FLUSHALL", v)
	}
	// One shard's answer is the cluster's: these join a pipelined run.
	if _, ok := startCluster(t, 1, 0, netsim.Zero{}).PrimaryFor([][]byte{[]byte("DBSIZE")}); !ok {
		t.Error("a one-shard cluster routes DBSIZE off the pipelined path")
	}
	if _, ok := c.PrimaryFor([][]byte{[]byte("DBSIZE")}); ok {
		t.Error("a two-shard cluster routes DBSIZE to one primary")
	}
}
