package server

import (
	"net"
	"strconv"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/cluster"
	"memorydb/internal/core"
	"memorydb/internal/election"
	"memorydb/internal/netsim"
	"memorydb/internal/resp"
	"memorydb/internal/txlog"
)

// waitRole waits on n's change signal until it holds role want.
func waitRole(t testing.TB, n *core.Node, want election.Role) {
	t.Helper()
	deadline := time.After(3 * time.Second)
	for changed := n.Changed(); n.Role() != want; changed = n.Changed() {
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("node %s never became %v", n.ID(), want)
		}
	}
}

// startMemoryDBServer boots a single-node MemoryDB behind a TCP server.
func startMemoryDBServer(t *testing.T) (*Server, *core.Node) {
	t.Helper()
	n := startPrimary(t, netsim.Zero{})
	return serve(t, NodeBackend{Node: n}), n
}

// startPrimary boots a single node on its own log, with the given commit
// latency, and waits until it leads.
func startPrimary(t testing.TB, commit netsim.LatencyModel) *core.Node {
	t.Helper()
	svc := txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: commit})
	log, _ := svc.CreateLog("s1")
	n, err := core.NewNode(core.Config{
		NodeID: "n1", ShardID: "s1", Log: log,
		Lease: 200 * time.Millisecond, Backoff: 260 * time.Millisecond,
		RenewEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	waitRole(t, n, election.RolePrimary)
	return n
}

// serve starts a TCP server in front of b.
func serve(t testing.TB, b Backend) *Server {
	t.Helper()
	srv := New(Config{Addr: "127.0.0.1:0", Backend: b})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

type testClient struct {
	conn net.Conn
	r    *resp.Reader
	w    *resp.Writer
}

func dial(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testClient{conn: conn, r: resp.NewReader(conn), w: resp.NewWriter(conn)}
}

func (c *testClient) do(t *testing.T, args ...string) resp.Value {
	t.Helper()
	if err := c.w.WriteCommandStrings(args...); err != nil {
		t.Fatal(err)
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := c.r.ReadValue()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestServerBasicCommands(t *testing.T) {
	srv, _ := startMemoryDBServer(t)
	c := dial(t, srv.Addr().String())
	if v := c.do(t, "PING"); v.Text() != "PONG" {
		t.Fatalf("PING = %v", v)
	}
	if v := c.do(t, "SET", "k", "v"); v.Text() != "OK" {
		t.Fatalf("SET = %v", v)
	}
	if v := c.do(t, "GET", "k"); v.Text() != "v" {
		t.Fatalf("GET = %v", v)
	}
	if v := c.do(t, "HSET", "h", "f", "1"); v.Int != 1 {
		t.Fatalf("HSET = %v", v)
	}
}

func TestServerMultiExec(t *testing.T) {
	srv, _ := startMemoryDBServer(t)
	c := dial(t, srv.Addr().String())
	if v := c.do(t, "MULTI"); v.Text() != "OK" {
		t.Fatalf("MULTI = %v", v)
	}
	if v := c.do(t, "SET", "a", "1"); v.Text() != "QUEUED" {
		t.Fatalf("queued = %v", v)
	}
	if v := c.do(t, "INCR", "a"); v.Text() != "QUEUED" {
		t.Fatalf("queued = %v", v)
	}
	v := c.do(t, "EXEC")
	if v.Type != resp.Array || len(v.Array) != 2 || v.Array[1].Int != 2 {
		t.Fatalf("EXEC = %v", v)
	}
	// The transaction applied atomically.
	if v := c.do(t, "GET", "a"); v.Text() != "2" {
		t.Fatalf("after EXEC = %v", v)
	}
}

func TestServerMultiDiscardAndErrors(t *testing.T) {
	srv, _ := startMemoryDBServer(t)
	c := dial(t, srv.Addr().String())
	if v := c.do(t, "EXEC"); !v.IsError() {
		t.Fatalf("EXEC without MULTI = %v", v)
	}
	if v := c.do(t, "DISCARD"); !v.IsError() {
		t.Fatalf("DISCARD without MULTI = %v", v)
	}
	c.do(t, "MULTI")
	if v := c.do(t, "MULTI"); !v.IsError() {
		t.Fatalf("nested MULTI = %v", v)
	}
	c.do(t, "SET", "x", "1")
	if v := c.do(t, "DISCARD"); v.Text() != "OK" {
		t.Fatalf("DISCARD = %v", v)
	}
	if v := c.do(t, "GET", "x"); !v.Null {
		t.Fatalf("discarded write applied: %v", v)
	}
}

func TestServerReadOnlyState(t *testing.T) {
	srv, _ := startMemoryDBServer(t)
	c := dial(t, srv.Addr().String())
	if v := c.do(t, "READONLY"); v.Text() != "OK" {
		t.Fatalf("READONLY = %v", v)
	}
	if v := c.do(t, "READWRITE"); v.Text() != "OK" {
		t.Fatalf("READWRITE = %v", v)
	}
}

func TestServerSelectAndAuth(t *testing.T) {
	srv, _ := startMemoryDBServer(t)
	c := dial(t, srv.Addr().String())
	if v := c.do(t, "SELECT", "0"); v.Text() != "OK" {
		t.Fatalf("SELECT 0 = %v", v)
	}
	if v := c.do(t, "SELECT", "1"); !v.IsError() {
		t.Fatalf("SELECT 1 = %v", v)
	}
	if v := c.do(t, "AUTH", "password"); v.Text() != "OK" {
		t.Fatalf("AUTH = %v", v)
	}
}

func TestServerQuitClosesConnection(t *testing.T) {
	srv, _ := startMemoryDBServer(t)
	c := dial(t, srv.Addr().String())
	if v := c.do(t, "QUIT"); v.Text() != "OK" {
		t.Fatalf("QUIT = %v", v)
	}
	c.conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := c.r.ReadValue(); err == nil {
		t.Fatal("connection still open after QUIT")
	}
}

func TestServerInlineCommands(t *testing.T) {
	srv, _ := startMemoryDBServer(t)
	c := dial(t, srv.Addr().String())
	if _, err := c.conn.Write([]byte("PING\r\n")); err != nil {
		t.Fatal(err)
	}
	v, err := c.r.ReadValue()
	if err != nil || v.Text() != "PONG" {
		t.Fatalf("inline PING = %v %v", v, err)
	}
}

// startRedisServer serves what memorydb-server -mode=redis provisions: a
// one-shard cluster on the Redis rule (cluster.Config.AckOnExecute)
// behind the cluster endpoint.
func startRedisServer(t *testing.T) *Server {
	t.Helper()
	return serve(t, ClusterBackend{Cluster: startClusterOn(t, cluster.Config{AckOnExecute: true}, netsim.Zero{})})
}

// TestServerBaselineBackend: the Redis-rule endpoint, the paper's OSS
// Redis baseline, serves reads and writes.
func TestServerBaselineBackend(t *testing.T) {
	srv := startRedisServer(t)
	c := dial(t, srv.Addr().String())
	if v := c.do(t, "SET", "k", "v"); v.Text() != "OK" {
		t.Fatalf("SET = %v", v)
	}
	if v := c.do(t, "GET", "k"); v.Text() != "v" {
		t.Fatalf("GET = %v", v)
	}
}

// TestRedisModePrimaryReadWrite: the Redis-rule primary reads its own
// writes of each kind: a SET, an INCR of a fresh key and a DEL.
func TestRedisModePrimaryReadWrite(t *testing.T) {
	c := dial(t, startRedisServer(t).Addr().String())
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"SET", "k", "v"}, "+OK"},
		{[]string{"GET", "k"}, `"v"`},
		{[]string{"INCR", "n"}, ":1"},
		{[]string{"GET", "n"}, `"1"`},
		{[]string{"DEL", "k"}, ":1"},
		{[]string{"EXISTS", "k"}, ":0"},
	} {
		if got := c.do(t, tc.args...); got.String() != tc.want {
			t.Fatalf("%q = %v, want %q", tc.args, got, tc.want)
		}
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv, _ := startMemoryDBServer(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(id int) {
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			r, w := resp.NewReader(conn), resp.NewWriter(conn)
			for i := 0; i < 50; i++ {
				if err := w.WriteCommandStrings("INCR", "counter"); err != nil {
					done <- err
					return
				}
				w.Flush()
				if _, err := r.ReadValue(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, srv.Addr().String())
	if v := c.do(t, "GET", "counter"); v.Text() != "400" {
		t.Fatalf("counter = %v, want 400", v)
	}
}

// TestCommandErrorsKeepRedisText: the front door resolves a name once,
// without regard to case, and a name that resolves to nothing or an argument
// count the command refuses still gets Redis's error text.
func TestCommandErrorsKeepRedisText(t *testing.T) {
	srv, _ := startMemoryDBServer(t)
	c := dial(t, srv.Addr().String())
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"sEt", "k", "v"}, "OK"},
		{[]string{"gEt", "k"}, "v"},
		{[]string{"NOSUCH", "x"}, "ERR unknown command 'NOSUCH'"},
		{[]string{"nosuch"}, "ERR unknown command 'nosuch'"},
		{[]string{"get"}, "ERR wrong number of arguments for 'get' command"},
		{[]string{"GET", "a", "b"}, "ERR wrong number of arguments for 'get' command"},
		{[]string{"Set", "k"}, "ERR wrong number of arguments for 'set' command"},
		{[]string{"MSET", "a"}, "ERR wrong number of arguments for 'mset' command"},
		{[]string{"hset", "h", "f"}, "ERR wrong number of arguments for 'hset' command"},
		{[]string{"discard"}, "ERR DISCARD without MULTI"},
	} {
		if got := c.do(t, tc.args...); got.Text() != tc.want {
			t.Errorf("%q = %q, want %q", tc.args, got.Text(), tc.want)
		}
	}
}

// TestBaselineExecIsAtomic: on the Redis rule an EXEC runs its queued
// commands as one, so a reader on another connection never sees a
// transaction's first INCR without its second.
func TestBaselineExecIsAtomic(t *testing.T) {
	srv := startRedisServer(t)
	w, r := dial(t, srv.Addr().String()), dial(t, srv.Addr().String())
	const txns = 3000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < txns; i++ {
			for _, cmd := range [][]string{{"MULTI"}, {"INCR", "k"}, {"INCR", "k"}, {"EXEC"}} {
				if err := w.w.WriteCommandStrings(cmd...); err != nil {
					t.Error(err)
					return
				}
			}
			if err := w.w.Flush(); err != nil {
				t.Error(err)
				return
			}
			for range 4 {
				if _, err := w.r.ReadValue(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	torn := 0
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if v := r.do(t, "GET", "k"); !v.Null {
			if n, err := strconv.Atoi(v.Text()); err != nil || n%2 != 0 {
				torn++
			}
		}
	}
	if torn > 0 {
		t.Fatalf("a reader saw %d odd counters: an EXEC of two INCRs was interleaved", torn)
	}
	if v := r.do(t, "GET", "k"); v.Text() != strconv.Itoa(2*txns) {
		t.Fatalf("k = %v after %d transactions, want %d", v, txns, 2*txns)
	}
}
