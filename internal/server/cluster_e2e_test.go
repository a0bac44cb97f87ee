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
	svc := txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: commit})
	c, err := cluster.New(cluster.Config{
		Name: "e2e", NumShards: shards, ReplicasPerShard: replicas,
		LogService: svc,
		Lease:      200 * time.Millisecond, Backoff: 260 * time.Millisecond,
		RenewEvery: 50 * time.Millisecond,
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
	srv, cl := startClusterServer(t)
	c := dial(t, srv.Addr().String())
	if v := c.do(t, "SET", "{ro}a", "1"); v.Text() != "OK" {
		t.Fatalf("SET = %v", v)
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
		t.Fatalf("read-only EXEC = %v", v)
	}
	if st.ReplicaReadsServed.Load() == served {
		t.Fatal("the read-only transaction was not served by the replica")
	}

	served, redirected := st.ReplicaReadsServed.Load(), st.ReplicaReadsRedirected.Load()
	mutations := primary.Stats().Mutations.Load()
	c.do(t, "MULTI")
	c.do(t, "GET", "{ro}a")
	c.do(t, "SET", "{ro}a", "2")
	if v := c.do(t, "EXEC"); v.Type != resp.Array || len(v.Array) != 2 || v.Array[0].Text() != "1" || v.Array[1].Text() != "OK" {
		t.Fatalf("EXEC with a write = %v", v)
	}
	if st.ReplicaReadsServed.Load() != served || st.ReplicaReadsRedirected.Load() == redirected {
		t.Fatal("the replica did not bounce the transaction with a write to the primary")
	}
	if primary.Stats().Mutations.Load() == mutations {
		t.Fatal("the primary did not run the transaction with a write")
	}
}
