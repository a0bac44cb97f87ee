package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"memorydb/internal/cluster"
	"memorydb/internal/core"
	"memorydb/internal/engine"
	"memorydb/internal/lin"
	"memorydb/internal/netsim"
	"memorydb/internal/resp"
)

// pipeOp is one command of a pipeline and what came back for it.
type pipeOp struct {
	conn, round, index int
	key                string
	in                 lin.Input
	out                lin.Output
	call, ret          int64
}

// TestPipelinedClientsLinearizable drives four connections that each
// pipeline random GET/SET/INCR commands at depth 8–32 against a real node
// with a commit latency, so a pipeline's writes share group commits. The
// history, with each pipeline's flush as its commands' invoke time and
// each decoded reply as its response time, must be linearizable, and
// every pipeline must keep its own program order.
func TestPipelinedClientsLinearizable(t *testing.T) {
	srv := serve(t, NodeBackend{Node: startPrimary(t, netsim.Fixed(500*time.Microsecond))})
	const conns, rounds = 4, 8
	start := time.Now()
	var (
		mu      sync.Mutex
		history []pipeOp
		wg      sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 1)))
			r, w := resp.NewReader(nc), resp.NewWriter(nc)
			for round := 0; round < rounds; round++ {
				ops := pipeline(rng, c, round)
				for _, op := range ops {
					argv := []string{strings.ToUpper(op.in.Kind), op.key}
					if op.in.Kind == "set" {
						argv = append(argv, op.in.Value)
					}
					w.WriteCommandStrings(argv...)
				}
				flushed := time.Since(start).Nanoseconds()
				if err := w.Flush(); err != nil {
					t.Error(err)
					return
				}
				for i := range ops {
					v, err := r.ReadValue()
					if err != nil || v.IsError() {
						t.Errorf("conn %d round %d op %d: %v %v", c, round, i, v, err)
						return
					}
					ops[i].call, ops[i].ret = flushed, time.Since(start).Nanoseconds()
					if ops[i].in.Kind != "set" {
						ops[i].out.Value = v.Text()
						if v.Type == resp.Integer {
							ops[i].out.Value = strconv.FormatInt(v.Int, 10)
						}
					}
				}
				mu.Lock()
				history = append(history, ops...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var registers, counters []lin.Operation
	for _, op := range history {
		o := lin.Operation{ClientID: op.conn, Key: op.key, Input: op.in, Output: op.out, Call: op.call, Return: op.ret}
		if strings.HasSuffix(op.key, "-c") {
			if op.out.Value == "" {
				o.Output.Value = "0" // GET of a counter no INCR has made yet
			}
			counters = append(counters, o)
		} else {
			registers = append(registers, o)
		}
	}
	if ok, key := lin.Check(lin.RegisterModel{}, registers); !ok {
		t.Fatalf("register history on %s is not linearizable", key)
	}
	if ok, key := lin.Check(lin.CounterModel{}, counters); !ok {
		t.Fatalf("counter history on %s is not linearizable", key)
	}
	checkProgramOrder(t, history)
}

// pipeline draws one connection's pipeline for a round: 8–32 commands on
// three of the round's fresh keys. Two are registers (GET/SET), one shared
// by every connection and one its own, and one is a counter (GET/INCR)
// they all share. A key takes at most perConn[k] of a pipeline's commands,
// so every key's history stays small enough for lin's exhaustive search.
func pipeline(rng *rand.Rand, conn, round int) []pipeOp {
	keys := [3]string{fmt.Sprintf("r%d-s", round), fmt.Sprintf("r%d-p%d", round, conn), fmt.Sprintf("r%d-c", round)}
	perConn := [3]int{3, 14, 15}
	depth := 8 + rng.Intn(25)
	ops := make([]pipeOp, 0, depth)
	for i := 0; i < depth; i++ {
		k := rng.Intn(3)
		for perConn[k] == 0 {
			k = (k + 1) % 3
		}
		perConn[k]--
		op := pipeOp{conn: conn, round: round, index: i, key: keys[k], in: lin.Input{Kind: "get"}}
		switch {
		case k == 2 && rng.Intn(2) == 0:
			op.in.Kind = "incr"
		case k < 2 && rng.Intn(4) == 0:
			op.in = lin.Input{Kind: "set", Value: fmt.Sprintf("c%d-r%d-%d", conn, round, i)}
		}
		ops = append(ops, op)
	}
	return ops
}

// checkProgramOrder asserts that a GET after its own pipeline's write to
// the same key sees that write or a later one: never nil, never a value
// its pipeline overwrote, never one whose write was acknowledged before
// the pipeline was sent; and a pipeline's INCRs and the GETs after them
// never go backwards.
func checkProgramOrder(t *testing.T, history []pipeOp) {
	t.Helper()
	writer := make(map[string]pipeOp) // register value → the SET that wrote it
	byPipeline := make(map[[2]int][]pipeOp)
	for _, op := range history {
		if op.in.Kind == "set" {
			writer[op.in.Value] = op
		}
		id := [2]int{op.conn, op.round}
		byPipeline[id] = append(byPipeline[id], op)
	}
	for _, ops := range byPipeline {
		lastSet := make(map[string]pipeOp)
		counter := make(map[string]int64)
		for _, op := range ops {
			switch {
			case op.in.Kind == "set":
				lastSet[op.key] = op
			case op.in.Kind == "incr" || strings.HasSuffix(op.key, "-c"):
				n, _ := strconv.ParseInt(op.out.Value, 10, 64)
				if n < counter[op.key] || (op.in.Kind == "incr" && n == counter[op.key]) {
					t.Fatalf("conn %d round %d op %d: %s %s = %d after this pipeline saw %d", op.conn, op.round, op.index, op.in.Kind, op.key, n, counter[op.key])
				}
				counter[op.key] = n
			default:
				own, ok := lastSet[op.key]
				if !ok {
					continue
				}
				w, found := writer[op.out.Value]
				switch {
				case !found:
					t.Fatalf("conn %d round %d op %d: GET %s = %q after its own SET %q", op.conn, op.round, op.index, op.key, op.out.Value, own.in.Value)
				case w.conn == op.conn && w.round == op.round && w.index < own.index,
					w.ret < own.call:
					t.Fatalf("conn %d round %d op %d: GET %s = %q, a write that precedes its own SET %q", op.conn, op.round, op.index, op.key, op.out.Value, own.in.Value)
				}
			}
		}
	}
}

// TestPipelineIsOneEntry pins the hand-off: a connection hands the node a
// drained pipeline as one run, served in one turn, so a depth-32 SET
// pipeline is exactly one data entry of 32 records — with no commit
// latency and with a 2 ms one, through a node and through a one-shard
// cluster on either release rule (memorydb-server -mode=redis serves the
// Redis one). A READONLY in the middle is a barrier: it ends the run, and the
// pipeline is two entries of 16 through the node. The cluster serves a
// READONLY connection one command at a time, so there the second half is
// 16 entries of one.
func TestPipelineIsOneEntry(t *testing.T) {
	const depth = 32
	for _, commit := range []time.Duration{0, 2 * time.Millisecond} {
		n := startPrimary(t, netsim.Fixed(commit))
		c := startCluster(t, 1, 0, netsim.Fixed(commit))
		p, _ := c.Shards()[0].Primary()
		rc := startClusterOn(t, cluster.Config{AckOnExecute: true}, netsim.Fixed(commit))
		rp, _ := rc.Shards()[0].Primary()
		for _, be := range []struct {
			node    *core.Node
			backend Backend
			// splitFlushes is 0 where the split pipeline's count is not
			// fixed: on the Redis rule a lone write's reply leaves before its
			// turn's flush, so the next may join its entry.
			splitFlushes int64
		}{
			{n, NodeBackend{Node: n}, 2},
			{p, ClusterBackend{Cluster: c}, 1 + depth/2},
			{rp, ClusterBackend{Cluster: rc}, 0},
		} {
			srv := serve(t, be.backend)
			for _, split := range []bool{false, true} {
				if split && be.splitFlushes == 0 {
					continue
				}
				var stream []byte
				for i := 0; i < depth; i++ {
					if split && i == depth/2 {
						stream = resp.AppendCommand(stream, "READONLY")
					}
					stream = resp.AppendCommand(stream, "SET", fmt.Sprintf("k%d", i), "v")
				}
				st := be.node.Stats()
				flushes, records := st.BatchFlushes.Load(), st.BatchedRecords.Load()
				out := exchange(t, srv.Addr().String(), stream)
				if want := bytes.Repeat([]byte("+OK\r\n"), bytes.Count(stream, []byte("*"))); !bytes.Equal(out, want) {
					t.Fatalf("%T, commit %v, split %v: replies %q", be.backend, commit, split, out)
				}
				wantFlushes := int64(1)
				if split {
					wantFlushes = be.splitFlushes
				}
				if f, r := st.BatchFlushes.Load()-flushes, st.BatchedRecords.Load()-records; f != wantFlushes || r != depth {
					t.Errorf("%T, commit %v, split %v: batch flushes +%d, batched records +%d; want +%d, +%d", be.backend, commit, split, f, r, wantFlushes, depth)
				}
			}
		}
	}
}

// TestPipelineFloodCannotGrowNode has a client write 100 000 SETs without
// reading a reply until it has sent them all. The connection never holds
// more than maxInflight commands in flight, the process's live heap grows
// by less than floodHeapMiB while the flood runs, and afterwards every
// reply arrives in order: each SET … GET returns the value the one before
// it wrote. The in-process log keeps every entry it commits, ≈ 9 MiB for
// this flood at one proc; a FIFO without its bound holds the whole flood
// besides, ≈ +23 MiB.
func TestPipelineFloodCannotGrowNode(t *testing.T) {
	const (
		sets         = 100_000
		floodHeapMiB = 16
	)
	peak := watchInflight(t)
	srv := serve(t, NodeBackend{Node: startPrimary(t, netsim.Zero{})})
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base, top := liveHeap(), uint64(0)
	w := bufio.NewWriter(nc)
	var cmd []byte
	for i := 0; i < sets; i++ {
		cmd = resp.AppendCommand(cmd[:0], "SET", "flood", strconv.Itoa(i), "GET")
		if _, err := w.Write(cmd); err != nil {
			t.Fatal(err)
		}
		if i%5_000 == 0 {
			top = max(top, liveHeap())
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	top = max(top, liveHeap())
	r := resp.NewReader(nc)
	for i := 0; i < sets; i++ {
		v, err := r.ReadValue()
		want := resp.Bulk([]byte(strconv.Itoa(i - 1)))
		if i == 0 {
			want = resp.Nil
		}
		if err != nil || !v.Equal(want) {
			t.Fatalf("reply %d = %v, %v; want %v", i, v, err, want)
		}
	}
	if got := peak.Load(); got > maxInflight {
		t.Errorf("a connection held %d commands in flight, bound %d", got, maxInflight)
	}
	if grew := (int64(top) - int64(base)) >> 20; grew >= floodHeapMiB {
		t.Errorf("live heap grew %d MiB during the flood, want < %d", grew, floodHeapMiB)
	}
	t.Logf("peak in flight %d, live heap %d → %d KiB", peak.Load(), base>>10, top>>10)
}

// serialBackend hides a backend's run interface, so a server in front of
// it answers each command before it reads the next.
type serialBackend struct{ Backend }

// serialCluster is a serialBackend in front of a cluster, which still
// answers CLUSTER.
type serialCluster struct {
	serialBackend
	ClusterOps
}

// fuzzCommands are the commands FuzzPipelineModes lets through: the
// connection's own, and engine commands whose replies depend only on the
// commands before them, not on the clock, randomness or map order.
var fuzzCommands = map[string]bool{
	"QUIT": true, "READONLY": true, "READWRITE": true, "MULTI": true, "EXEC": true, "DISCARD": true,
	"AUTH": true, "SELECT": true, "CLUSTER": true, "PING": true, "ECHO": true, "GET": true, "SET": true,
	"INCR": true, "DECR": true, "INCRBY": true, "DECRBY": true, "APPEND": true, "STRLEN": true,
	"GETSET": true, "SETNX": true, "DEL": true, "EXISTS": true, "MGET": true, "MSET": true, "TYPE": true,
	"DBSIZE": true, "WAIT": true, "LPUSH": true, "RPUSH": true, "LPOP": true, "RPOP": true, "LLEN": true,
	"LRANGE": true, "LINDEX": true,
}

// fuzzable reports whether every command of stream that a server would
// run is in fuzzCommands or unknown to the engine (its error is fixed
// text); SET takes no expiry option. For a cluster it also rejects CLUSTER
// INFO, whose per-AZ ack counts count log entries: a pipelining endpoint
// writes fewer of them.
func fuzzable(stream []byte, cluster bool) bool {
	for len(stream) > 0 {
		argv, rest, err := resp.ParseCommand(nil, stream)
		if err != nil {
			return true // nothing after a malformed or unfinished frame runs
		}
		if len(argv) > 0 {
			name := strings.ToUpper(string(argv[0]))
			known := engine.Lookup(argv[0]) != nil || name == "INFO"
			if (known && !fuzzCommands[name]) || (name == "SET" && len(argv) > 3) {
				return false
			}
			if cluster && name == "CLUSTER" && len(argv) > 1 && strings.EqualFold(string(argv[1]), "INFO") {
				return false
			}
		}
		stream = rest
	}
	return true
}

// exchange writes stream to a fresh connection, closes its write half and
// returns every byte the server sends until it closes the connection.
func exchange(t *testing.T, addr string, stream []byte) []byte {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	go func() {
		nc.Write(stream)
		nc.(*net.TCPConn).CloseWrite()
	}()
	out, err := io.ReadAll(nc)
	if err != nil {
		t.Fatalf("reading replies: %v", err)
	}
	return out
}

// FuzzPipelineModes feeds one byte stream to two pairs of servers: in
// each pair one pipelines and one serves a command at a time. The serial
// loop is the oracle: the two reply streams must be byte for byte equal.
// One pair is in front of a node each, the other in front of a 2-shard
// cluster each, where a run ends at every command for the other shard.
// Both backends of a pair see the same streams in the same order, so
// their keyspaces stay equal; FLUSHALL resets both anyway (every shard of
// a cluster).
func FuzzPipelineModes(f *testing.F) {
	cmds := func(lines ...string) []byte { return []byte(strings.Join(lines, "\r\n") + "\r\n") }
	f.Add(cmds("SET a 1", "GET a", "INCR a", "INCR a", "GET a", "DEL a", "GET a"))
	f.Add(resp.AppendCommand(resp.AppendCommand(resp.AppendCommand(nil, "SET", "k", "v"), "APPEND", "k", "w"), "GET", "k"))
	f.Add(cmds("SET a 1", "READONLY", "GET a", "READONLY STALE 5", "GET a", "READWRITE", "INCR a", "READONLY BOGUS"))
	f.Add(cmds("SET a 1", "MULTI", "INCR a", "GET a", "EXEC", "GET a", "MULTI", "SET a x", "DISCARD", "GET a", "EXEC"))
	f.Add(cmds("MULTI", "MULTI", "NOSUCH x", "EXEC", "DISCARD", "PING"))
	f.Add(cmds("SET a 1", "INCR a", "QUIT", "INCR a", "GET a"))
	f.Add(append(cmds("SET a 1", "INCR a"), "*2\r\n$3\r\nGET\r\n$x\r\na\r\nGET a\r\n"...))
	f.Add(append(cmds("RPUSH l a b c", "LRANGE l 0 -1"), "*2\r\n$4\r\nLPOP\r\n$1\r\nl"...))
	f.Add(cmds("AUTH x", "SELECT 0", "SELECT 1", "CLUSTER INFO", "MSET a 1 b 2", "MGET a b c", "DBSIZE", "WAIT 1 0"))
	// a and b hash to different shards of a 2-shard cluster.
	f.Add(cmds("SET a 1", "SET b 2", "INCR a", "INCR b", "GET a", "GET b", "PING", "INCR a", "INCR a", "GET b"))
	f.Add(cmds("MSET a 1 b 2", "MSET {t}a 1 {t}b 2", "MGET {t}a {t}b", "GET a", "DEL a b", "DEL {t}a {t}b", "CLUSTER KEYSLOT a"))

	nodes := [2]*Server{
		serve(f, NodeBackend{Node: startPrimary(f, netsim.Zero{})}),
		serve(f, serialBackend{NodeBackend{Node: startPrimary(f, netsim.Zero{})}}),
	}
	serialC := ClusterBackend{Cluster: startCluster(f, 2, 0, netsim.Zero{})}
	clusters := [2]*Server{
		serve(f, ClusterBackend{Cluster: startCluster(f, 2, 0, netsim.Zero{})}),
		serve(f, serialCluster{serialBackend{serialC}, serialC}),
	}
	flush := resp.AppendCommand(nil, "FLUSHALL")
	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) > 16<<10 || !fuzzable(stream, false) {
			t.Skip()
		}
		pairs := [][2]*Server{nodes}
		if fuzzable(stream, true) {
			pairs = append(pairs, clusters)
		}
		for _, pair := range pairs {
			pipelined, serial := pair[0].Addr().String(), pair[1].Addr().String()
			if p, s := exchange(t, pipelined, flush), exchange(t, serial, flush); !bytes.Equal(p, s) {
				t.Fatalf("FLUSHALL: pipelined %q, serial %q", p, s)
			}
			p, s := exchange(t, pipelined, stream), exchange(t, serial, stream)
			if !bytes.Equal(p, s) {
				t.Fatalf("%T: stream %q:\npipelined %q\nserial    %q", pair[0].cfg.Backend, stream, p, s)
			}
		}
	})
}
