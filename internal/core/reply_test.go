package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/election"
	"memorydb/internal/netsim"
	"memorydb/internal/obs"
	"memorydb/internal/resp"
	"memorydb/internal/txlog"
)

// waitFor polls cond (a counter or a role, never a sleep standing in for
// one) and fails the test when it does not hold within two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// heldNode returns a primary on which time passes only when the test says
// so. The log service runs on one simulated clock with a one-second commit
// latency — an entry stays in flight until commit() — and the node on
// another: its lease neither renews nor expires until expire(), which runs
// it out. Both are pumped until the node holds the lease, then stopped.
// One append window keeps the second write in the shard buffer.
func heldNode(t *testing.T) (n *Node, commit, expire func()) {
	t.Helper()
	logClk, nodeClk := clock.NewSim(time.Unix(1700000000, 0)), clock.NewSim(time.Unix(1700000000, 0))
	svc := txlog.NewService(txlog.Config{Clock: logClk, CommitLatency: netsim.Fixed(time.Second)})
	log, _ := svc.CreateLog("shard-1")
	n, err := NewNode(Config{
		NodeID: "node-a", ShardID: log.ShardID(), Log: log, Clock: nodeClk,
		Lease: 120 * time.Millisecond, Backoff: 160 * time.Millisecond, RenewEvery: 30 * time.Millisecond,
		MaxInflightAppends: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	commit = func() { logClk.Advance(time.Second) }
	expire = func() { nodeClk.Advance(200 * time.Millisecond) }
	n.Start()
	t.Cleanup(func() {
		// A demoted node sits out its backoff on the node clock.
		stopped := make(chan struct{})
		go func() { n.Stop(); close(stopped) }()
		waitFor(t, "the node to stop", func() bool {
			expire()
			select {
			case <-stopped:
				return true
			default:
				return false
			}
		})
	})
	waitFor(t, "the node to win the lease", func() bool {
		nodeClk.Advance(20 * time.Millisecond)
		commit()
		return n.Role() == election.RolePrimary
	})
	return n, commit, expire
}

// TestParkedReplyDeliveredExactlyOnce walks every place a reply can be
// withheld and ends the wait both ways: the covering entry commits (the
// caller gets its value) or the node loses its lease first (the caller gets
// errDemoted, and the entry's late commit delivers nothing). Every caller
// returns, and the node finished exactly as many commands as were sent.
func TestParkedReplyDeliveredExactlyOnce(t *testing.T) {
	// Each step is one command sent from its own caller, then a counter that
	// says it has reached its parking place. All keys share a slot, so they
	// share a shard buffer at any shard count.
	type step struct {
		cmd    string
		want   string // reply text once the entry commits
		parked func(n *Node, base StatsView) bool
	}
	inflight := step{"SET {p}a 1", "OK", func(n *Node, b StatsView) bool { return n.Stats().BatchFlushes.Load() == b.BatchFlushes+1 }}
	buffered := step{"SET {p}b 2", "OK", func(n *Node, b StatsView) bool { return n.Stats().Mutations.Load() == b.Mutations+2 }}
	counted := func(n *Node, b StatsView) bool { return n.Stats().GatedReads.Load() == b.GatedReads+1 }
	onTracker := func(n *Node, _ StatsView) bool { // beside the in-flight write's entry
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.trk.PendingCount() == 2
	}
	for _, place := range []struct {
		name  string
		steps []step
	}{
		{"buffered write", []step{inflight, buffered}},
		{"read gated on the buffer", []step{inflight, buffered, {"GET {p}b", "2", counted}}},
		{"read gated on a key hazard", []step{inflight, {"GET {p}a", "1", onTracker}}},
		{"read gated on everything", []step{inflight, {"DBSIZE", "", onTracker}}},
		{"barrier-shard mutation", []step{{"FLUSHALL", "OK", inflight.parked}}},
	} {
		for _, outcome := range []string{"commit", "demote"} {
			t.Run(place.name+"/"+outcome, func(t *testing.T) {
				n, commit, expire := heldNode(t)
				base := n.Stats().Snapshot()
				finished := n.Obs().Stage(obs.StageE2E).Count()
				replies := make([]chan resp.Value, len(place.steps))
				for i, s := range place.steps {
					argv := [][]byte{}
					for _, a := range strings.Fields(s.cmd) {
						argv = append(argv, []byte(a))
					}
					replies[i] = make(chan resp.Value, 1)
					go func(ch chan resp.Value) {
						v, err := n.Do(context.Background(), argv)
						if err != nil {
							v = resp.Err(err.Error())
						}
						ch <- v
					}(replies[i])
					waitFor(t, s.cmd+" to park", func() bool { return s.parked(n, base) })
				}
				if outcome == "demote" {
					expire()
					waitFor(t, "the node to step down", func() bool { return n.Stats().Demotions.Load() > base.Demotions })
				}
				for i, s := range place.steps {
					var v resp.Value
					waitFor(t, s.cmd+"'s caller to return", func() bool {
						if outcome == "commit" {
							commit() // again: a buffered batch is appended once the entry ahead commits
						}
						select {
						case v = <-replies[i]:
							return true
						default:
							return false
						}
					})
					if outcome == "demote" && !v.Equal(errDemoted) {
						t.Errorf("%s: reply %v after the lease ran out, want %v", s.cmd, v, errDemoted)
					} else if outcome == "commit" && (v.IsError() || (s.want != "" && v.Text() != s.want)) {
						t.Errorf("%s: reply %v, want %q", s.cmd, v, s.want)
					}
				}
				// Every flushed entry becomes durable and is answered for —
				// after the abort, in the demote case: nothing is left to
				// deliver. A second reply to any task would be a second
				// finished command here (and a data race on its value).
				waitFor(t, "the log to answer for every flushed entry", func() bool {
					commit()
					return n.gc.inflight.Load() == 0
				})
				if got := n.Obs().Stage(obs.StageE2E).Count() - finished; got != uint64(len(place.steps)) {
					t.Fatalf("%d commands sent, %d replies delivered", len(place.steps), got)
				}
			})
		}
	}
}

// TestGatedReadsCountsWithheldReads: gated_reads counts the reads whose
// reply was actually withheld — on the key-level hazard, the common case,
// and not for a read that found nothing outstanding.
func TestGatedReadsCountsWithheldReads(t *testing.T) {
	svc := testService(t, netsim.Fixed(20*time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	// No renewal falls inside the test: an in-flight lease entry would
	// rightly gate WAIT.
	n, err := NewNode(Config{NodeID: "node-a", ShardID: log.ShardID(), Log: log,
		Lease: 20 * time.Second, Backoff: 25 * time.Second, RenewEvery: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	mustDo(t, n, "SET", "untouched", "x")

	ctx := context.Background()
	gated := func() int64 { return n.Stats().GatedReads.Load() }
	// writeInFlight issues a SET and returns once its entry is in the log
	// but, 20 ms from durable, cannot have committed.
	writeInFlight := func() (done chan struct{}) {
		flushes, done := n.Stats().BatchFlushes.Load(), make(chan struct{})
		go func() {
			defer close(done)
			n.Do(ctx, [][]byte{[]byte("SET"), []byte("hot"), []byte("v")})
		}()
		waitFor(t, "the SET's entry to be issued", func() bool { return n.Stats().BatchFlushes.Load() > flushes })
		return done
	}
	quiesce := func() {
		n.mu.Lock()
		trk := n.trk
		n.mu.Unlock()
		waitFor(t, "every issued entry to commit", func() bool { return trk.Committed() >= n.issuedSeq() })
	}

	quiesce()
	base := gated()
	done := writeInFlight()
	if v := mustDo(t, n, "GET", "hot"); v.Text() != "v" {
		t.Fatalf("GET hot = %v", v)
	}
	if got := gated() - base; got != 1 {
		t.Errorf("GET of a key with a SET in flight: gated_reads +%d, want +1", got)
	}
	<-done

	done = writeInFlight()
	base = gated()
	mustDo(t, n, "GET", "untouched")
	if got := gated() - base; got != 0 {
		t.Errorf("GET of an untouched key: gated_reads +%d, want +0", got)
	}
	<-done

	quiesce()
	base = gated()
	mustDo(t, n, "WAIT", "0", "0")
	if got := gated() - base; got != 0 {
		t.Errorf("WAIT with nothing outstanding: gated_reads +%d, want +0", got)
	}

	done = writeInFlight()
	base = gated()
	mustDo(t, n, "WAIT", "0", "0")
	if got := gated() - base; got != 1 {
		t.Errorf("WAIT behind an in-flight write: gated_reads +%d, want +1", got)
	}
	<-done

	if info := mustDo(t, n, "INFO").Text(); !strings.Contains(info, "\r\ngated_reads:2\r\n") {
		t.Error("INFO's # Stats does not report gated_reads:2")
	}
}

// TestNodeOpAllocations pins what one command costs the heap on the node
// path — task, engine, group commit, log append, tracker, reply — on a
// zero-latency log. Process-wide Mallocs, so the node's background work
// (a lease renewal or two) is in the count too.
func TestNodeOpAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	ctx := context.Background()
	mset := [][]byte{[]byte("MSET")}
	for i := 0; i < 500; i++ {
		mset = append(mset, []byte(fmt.Sprintf("key:%08d", i)), []byte("value"))
	}
	for _, c := range []struct {
		argv [][]byte
		max  float64
		ops  int
	}{
		{[][]byte{[]byte("SET"), []byte("k"), []byte("v")}, 13, 2000},
		{[][]byte{[]byte("GET"), []byte("k")}, 2.1, 2000},
		// 500 of these are the stored buffers, one per key (1 045 per MSET
		// before its keys were views and its key list a scan, 529 while a
		// cross-slot MSET parked keyspace shards from a goroutine of its
		// own).
		{mset, 524, 200},
	} {
		var before, after runtime.MemStats
		for i := 0; i < c.ops/4; i++ {
			n.Do(ctx, c.argv)
		}
		runtime.ReadMemStats(&before)
		for i := 0; i < c.ops; i++ {
			n.Do(ctx, c.argv)
		}
		runtime.ReadMemStats(&after)
		if per := float64(after.Mallocs-before.Mallocs) / float64(c.ops); per > c.max {
			t.Errorf("%s: %.1f allocations per Node.Do, want <= %.1f", c.argv[0], per, c.max)
		} else {
			t.Logf("%s: %.1f allocations per Node.Do", c.argv[0], per)
		}
	}
}

// BenchmarkNodeOpPath measures the raw single-op path through the node
// workloop (tracker + dispatch + engine), no commit latency — the fixed
// overhead MemoryDB adds over a bare engine call (engine's
// BenchmarkEngineDispatch).
func BenchmarkNodeOpPath(b *testing.B) {
	log, err := txlog.NewService(txlog.Config{Clock: clock.NewReal()}).CreateLog("bench")
	if err != nil {
		b.Fatal(err)
	}
	n, err := NewNode(Config{
		NodeID: "bench", ShardID: log.ShardID(), Log: log,
		Lease: 500 * time.Millisecond, Backoff: 650 * time.Millisecond,
		RenewEvery: 100 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	n.Start()
	b.Cleanup(n.Stop)
	for n.Role() != election.RolePrimary {
		time.Sleep(time.Millisecond)
	}
	ctx := context.Background()
	n.Do(ctx, [][]byte{[]byte("SET"), []byte("k"), []byte("v")})
	b.Run("GET", func(b *testing.B) {
		argv := [][]byte{[]byte("GET"), []byte("k")}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n.Do(ctx, argv)
		}
	})
	b.Run("SET", func(b *testing.B) {
		argv := [][]byte{[]byte("SET"), []byte("k"), []byte("v")}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n.Do(ctx, argv)
		}
	})
}
