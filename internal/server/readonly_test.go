package server

import (
	"fmt"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/election"
	"memorydb/internal/netsim"
	"memorydb/internal/resp"
	"memorydb/internal/txlog"
)

// startReplicaServer boots a primary+replica pair and serves the REPLICA
// over TCP, so READONLY routing is observable end to end: without the
// opt-in the replica rejects reads; with it they take the freshness
// ladder.
func startReplicaServer(t *testing.T) (*Server, *core.Node, *core.Node) {
	t.Helper()
	svc := txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: netsim.Zero{}})
	log, _ := svc.CreateLog("s1")
	mk := func(id string) *core.Node {
		n, err := core.NewNode(core.Config{
			NodeID: id, ShardID: "s1", Log: log,
			Lease: 200 * time.Millisecond, Backoff: 260 * time.Millisecond,
			RenewEvery: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		t.Cleanup(n.Stop)
		return n
	}
	primary := mk("n1")
	waitRole(t, primary, election.RolePrimary)
	replica := mk("n2")
	waitRole(t, replica, election.RoleReplica)
	srv := New(Config{Addr: "127.0.0.1:0", Backend: NodeBackend{Node: replica}})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, primary, replica
}

// TestReadonlyPipelineRoutesReadOnly proves a READONLY connection's
// MULTI/EXEC pipeline reaches the replica read path: the same all-read
// transaction that a replica rejects on a READWRITE connection is served
// once the connection opts in. (This pins the DoBatch read-mode plumbing
// — the mode must survive from the connection state into the backend.)
func TestReadonlyPipelineRoutesReadOnly(t *testing.T) {
	srv, primary, replica := startReplicaServer(t)
	for i := 0; i < 3; i++ {
		v, err := primary.Do(t.Context(), [][]byte{[]byte("SET"), []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))})
		if err != nil || v.IsError() {
			t.Fatalf("seed write: %v %v", v, err)
		}
	}

	c := dial(t, srv.Addr().String())
	runPipeline := func() resp.Value {
		t.Helper()
		if v := c.do(t, "MULTI"); v.Text() != "OK" {
			t.Fatalf("MULTI = %v", v)
		}
		for i := 0; i < 3; i++ {
			if v := c.do(t, "GET", fmt.Sprintf("k%d", i)); v.Text() != "QUEUED" {
				t.Fatalf("queue GET = %v", v)
			}
		}
		return c.do(t, "EXEC")
	}

	// Without READONLY the replica refuses the transaction outright.
	if v := runPipeline(); !v.IsError() {
		t.Fatalf("replica served a READWRITE pipeline: %v", v)
	}

	if v := c.do(t, "READONLY"); v.Text() != "OK" {
		t.Fatalf("READONLY = %v", v)
	}
	// With the opt-in, the all-read pipeline is served from the replica
	// under the freshness ladder. A REDIRECT bounce (proof timed out) is
	// a legal degradation — retry until the proof lands.
	deadline := time.Now().Add(3 * time.Second)
	for {
		v := runPipeline()
		if v.Type == resp.Array && len(v.Array) == 3 {
			for i, el := range v.Array {
				if want := fmt.Sprintf("v%d", i); el.Text() != want {
					t.Fatalf("EXEC[%d] = %v, want %q", i, el, want)
				}
			}
			break
		}
		if !core.IsRedirect(v) {
			t.Fatalf("READONLY pipeline reply: %v", v)
		}
		if time.Now().After(deadline) {
			t.Fatal("READONLY pipeline never served")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if replica.Stats().ReplicaReadsServed.Load() == 0 {
		t.Fatal("pipeline did not take the verified replica read path")
	}

	// A pipeline containing a write never executes on the replica, even
	// on a READONLY connection: it bounces to the primary with REDIRECT
	// like any read the replica cannot verify.
	if v := c.do(t, "MULTI"); v.Text() != "OK" {
		t.Fatalf("MULTI = %v", v)
	}
	c.do(t, "GET", "k0")
	c.do(t, "SET", "k0", "mutated")
	if v := c.do(t, "EXEC"); !core.IsRedirect(v) {
		t.Fatalf("write pipeline under READONLY on a replica = %v, want REDIRECT", v)
	}

	// READWRITE drops the opt-in again.
	if v := c.do(t, "READWRITE"); v.Text() != "OK" {
		t.Fatalf("READWRITE = %v", v)
	}
	if v := runPipeline(); !v.IsError() {
		t.Fatalf("replica served a pipeline after READWRITE: %v", v)
	}
}

func TestReadonlyStalenessGrammar(t *testing.T) {
	srv, _ := startMemoryDBServer(t)
	c := dial(t, srv.Addr().String())
	if v := c.do(t, "READONLY", "STALE", "50"); v.Text() != "OK" {
		t.Fatalf("READONLY STALE 50 = %v", v)
	}
	if v := c.do(t, "READONLY", "EVENTUAL"); v.Text() != "OK" {
		t.Fatalf("READONLY EVENTUAL = %v", v)
	}
	for _, bad := range [][]string{
		{"READONLY", "STALE"},
		{"READONLY", "STALE", "0"},
		{"READONLY", "STALE", "-5"},
		{"READONLY", "STALE", "soon"},
		{"READONLY", "EVENTUAL", "extra"},
		{"READONLY", "BOGUS"},
	} {
		if v := c.do(t, bad...); !v.IsError() {
			t.Fatalf("%v accepted: %v", bad, v)
		}
	}
	// The connection still works after rejected mode changes.
	if v := c.do(t, "PING"); v.Text() != "PONG" {
		t.Fatalf("PING = %v", v)
	}
}
