package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/election"
	"memorydb/internal/netsim"
	"memorydb/internal/txlog"
)

// waitFor polls cond — a counter, or a step that pumps simulated time —
// and fails the test when it does not hold within two seconds. A wait on a
// role, a freeze or a stall uses waitChanged, and one on an applied
// position waitApplied: the node signals those.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitMutations waits until n has executed want mutations in all: every
// write counted is in the group-commit buffer or the log.
func waitMutations(t *testing.T, n *Node, want int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d mutations to execute", want), func() bool { return n.Stats().Mutations.Load() >= want })
}

// TestParkedReplyDeliveredExactlyOnce walks every place a reply can be
// withheld and ends the wait both ways: the covering entry commits (the
// caller gets its value) or the node loses its lease first (the caller gets
// errDemoted, and the entry's late commit delivers nothing). Every caller
// is answered exactly once.
func TestParkedReplyDeliveredExactlyOnce(t *testing.T) {
	// Each step is one command and where its reply waits: on an issued
	// entry, or on the open buffer's.
	type step struct {
		cmd    string
		want   string // reply text once the entry commits
		onOpen bool
	}
	inflight := step{"SET {p}a 1", "OK", false}
	buffered := step{"SET {p}b 2", "OK", true}
	for _, place := range []struct {
		name  string
		steps []step
	}{
		{"buffered write", []step{inflight, buffered}},
		{"read gated on the buffer", []step{inflight, buffered, {"GET {p}b", "2", true}}},
		{"read gated on a key hazard", []step{inflight, {"GET {p}a", "1", false}}},
		{"read gated on everything", []step{inflight, {"DBSIZE", "", false}}},
		{"barrier-shard mutation", []step{{"FLUSHALL", "OK", false}}},
	} {
		for _, outcome := range []string{"commit", "demote"} {
			t.Run(place.name+"/"+outcome, func(t *testing.T) {
				h := newHarness(t, harnessConfig{window: 1})
				calls := make([]*call, len(place.steps))
				for i, s := range place.steps {
					calls[i] = h.do(strings.Fields(s.cmd)...)
					h.mustWait(calls[i])
					if open := h.primary.gc.open; (open != nil && open.holdsTask(calls[i].t)) != s.onOpen {
						t.Fatalf("%s: held by the open buffer = %v, want %v", s.cmd, !s.onOpen, s.onOpen)
					}
				}
				if outcome == "demote" {
					h.expire()
					if h.primary.Role() != election.RoleDemoted {
						t.Fatalf("role %v after the lease ran out, want demoted", h.primary.Role())
					}
				}
				// Every issued entry becomes durable and is answered for —
				// after the abort, in the demote case: nothing is left to
				// deliver then.
				for len(h.primary.issued) > 0 {
					h.commit()
				}
				for i, s := range place.steps {
					v := h.mustReply(calls[i], "")
					if outcome == "demote" && !v.Equal(errDemoted) {
						t.Errorf("%s: reply %v after the lease ran out, want %v", s.cmd, v, errDemoted)
					} else if outcome == "commit" && (v.IsError() || (s.want != "" && v.Text() != s.want)) {
						t.Errorf("%s: reply %v, want %q", s.cmd, v, s.want)
					}
					if calls[i].replies != 1 {
						t.Errorf("%s: %d replies, want 1", s.cmd, calls[i].replies)
					}
				}
			})
		}
	}
}

// holdsTask reports whether e holds t's reply.
func (e *issuedEntry) holdsTask(t *task) bool {
	return slices.Contains(e.writes, t) || slices.Contains(e.reads, t)
}

// TestGatedReadsCountsWithheldReads: gated_reads counts the reads whose
// reply was actually withheld — on the key-level hazard, the common case,
// and not for a read that found nothing outstanding.
func TestGatedReadsCountsWithheldReads(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	gated := h.primary.Stats().GatedReads.Load
	h.do("SET", "untouched", "x")
	h.commit()

	base := gated()
	h.do("SET", "hot", "v")
	get := h.do("GET", "hot")
	h.mustWait(get)
	if got := gated() - base; got != 1 {
		t.Errorf("GET of a key with a SET in flight: gated_reads +%d, want +1", got)
	}
	h.commit()
	h.mustReply(get, "v")

	h.do("SET", "hot", "v")
	base = gated()
	h.mustReply(h.do("GET", "untouched"), "x")
	if got := gated() - base; got != 0 {
		t.Errorf("GET of an untouched key: gated_reads +%d, want +0", got)
	}
	h.commit()

	base = gated()
	h.mustReply(h.do("WAIT", "0", "0"), "")
	if got := gated() - base; got != 0 {
		t.Errorf("WAIT with nothing outstanding: gated_reads +%d, want +0", got)
	}

	h.do("SET", "hot", "v")
	base = gated()
	wait := h.do("WAIT", "0", "0")
	h.mustWait(wait)
	if got := gated() - base; got != 1 {
		t.Errorf("WAIT behind an in-flight write: gated_reads +%d, want +1", got)
	}
	h.commit()
	h.mustReply(wait, "")

	if info := h.info(h.primary); !strings.Contains(info, "\ngated_reads:2\n") {
		t.Error("INFO's # Stats does not report gated_reads:2")
	}
}

// TestNodeOpAllocations pins what one command costs the heap on the node
// path — task, engine, group commit, log append, reply release — on a
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
		{[][]byte{[]byte("SET"), []byte("k"), []byte("v")}, 11, 2000},
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

	// A GET of a key whose SET is still in flight, 20 ms from durable: the
	// read joins the SET's entry and is answered with it. Counted per pair;
	// the SETs come from one caller goroutine, and no renewal falls inside.
	svc = testService(t, netsim.Fixed(20*time.Millisecond))
	log, _ = svc.CreateLog("shard-2")
	gn, err := NewNode(Config{NodeID: "node-b", ShardID: log.ShardID(), Log: log,
		Lease: 20 * time.Second, Backoff: 25 * time.Second, RenewEvery: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	gn.Start()
	t.Cleanup(gn.Stop)
	waitRole(t, gn, election.RolePrimary, 2*time.Second)
	set, get := [][]byte{[]byte("SET"), []byte("k"), []byte("v")}, [][]byte{[]byte("GET"), []byte("k")}
	sets, setDone := make(chan struct{}), make(chan struct{})
	defer close(sets)
	go func() {
		for range sets {
			gn.Do(ctx, set)
			setDone <- struct{}{}
		}
	}()
	pair := func() {
		executed := gn.Stats().Mutations.Load() + 1
		sets <- struct{}{}
		for gn.Stats().Mutations.Load() < executed {
			runtime.Gosched()
		}
		gn.Do(ctx, get)
		<-setDone
	}
	const pairs, maxPair = 50, 28
	pair()
	gated := gn.Stats().GatedReads.Load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	if got := gn.Stats().GatedReads.Load() - gated; got != pairs {
		t.Fatalf("%d of %d GETs gated on the SET in flight", got, pairs)
	}
	if per := float64(after.Mallocs-before.Mallocs) / pairs; per > maxPair {
		t.Errorf("SET + gated GET: %.1f allocations per pair, want <= %d", per, maxPair)
	} else {
		t.Logf("SET + gated GET: %.1f allocations per pair", per)
	}
}

// BenchmarkNodeOpPath measures the raw single-op path through the node
// workloop (dispatch + engine + reply release), no commit latency — the fixed
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
	for changed := n.Changed(); n.Role() != election.RolePrimary; changed = n.Changed() {
		<-changed
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
