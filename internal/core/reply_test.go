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
// caller gets its value) or the node demotes first (the caller gets
// errDemoted, and the entry's late commit delivers nothing). Every caller
// is answered exactly once.
func TestParkedReplyDeliveredExactlyOnce(t *testing.T) {
	// Each step is one command and where its reply waits as the last run's
	// turn ends: on an issued entry, or on the open buffer's. The buffer
	// holds a write only inside the turn that ran it, so a probe drained
	// behind the last run sees where each reply waits before the turn's
	// flush; in the demote case the probe then demotes the node, as a
	// StepDown's demotion queued behind the run would.
	type step struct {
		cmd    string
		want   string // reply text once the entry commits
		onOpen bool
	}
	inflight := step{"SET {p}a 1", "OK", false}
	buffered := step{"SET {p}b 2", "OK", true}
	for _, place := range []struct {
		name string
		runs [][]step // one turn each
	}{
		{"buffered write", [][]step{{inflight}, {buffered}}},
		{"read gated on the buffer", [][]step{{inflight}, {buffered, {"GET {p}b", "2", true}}}},
		{"read gated on a key hazard", [][]step{{inflight}, {{"GET {p}a", "1", false}}}},
		{"read gated on everything", [][]step{{inflight}, {{"DBSIZE", "", false}}}},
		{"barrier-shard mutation", [][]step{{{"FLUSHALL", "OK", true}}}},
	} {
		for _, outcome := range []string{"commit", "demote"} {
			t.Run(place.name+"/"+outcome, func(t *testing.T) {
				h := newHarness(t, harnessConfig{})
				var steps []step
				var calls []*call
				for i, run := range place.runs {
					cmds := make([][]string, len(run))
					for j, s := range run {
						cmds[j] = strings.Fields(s.cmd)
					}
					steps = append(steps, run...)
					if i < len(place.runs)-1 {
						calls = append(calls, h.run(h.primary, cmds...)...)
						continue
					}
					calls = append(calls, h.queueRun(h.primary, cmds...)...)
					var onOpen, held []bool
					h.queueFunc(h.primary, func() error {
						open := h.primary.gc.open
						for _, c := range calls {
							o := open != nil && open.holdsTask(c.t)
							onOpen, held = append(onOpen, o), append(held, o || h.primary.holds(c.t))
						}
						if outcome == "demote" {
							h.primary.demote()
						}
						return nil
					})
					h.take(h.primary)
					for j, s := range steps {
						if onOpen[j] != s.onOpen || !held[j] {
							t.Fatalf("%s: held = %v, by the open buffer = %v; want true, %v", s.cmd, held[j], onOpen[j], s.onOpen)
						}
					}
				}
				if outcome == "commit" {
					for _, c := range calls {
						h.mustWait(c)
					}
				} else if h.primary.Role() != election.RoleDemoted {
					t.Fatalf("role %v after the step-down, want demoted", h.primary.Role())
				}
				// Every issued entry becomes durable and is answered for —
				// after the abort, in the demote case: nothing is left to
				// deliver then.
				for len(h.primary.issued) > 0 {
					h.commit()
				}
				for i, s := range steps {
					v := h.mustReply(calls[i], "")
					if outcome == "demote" && !v.Equal(errDemoted) {
						t.Errorf("%s: reply %v after the step-down, want %v", s.cmd, v, errDemoted)
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
// path — task, engine, group commit, log append, reply release. It counts
// the node's own allocations only: the harness steps the primary from the
// test's goroutine and counts across the submit and each step, nothing
// else, and no other goroutine allocates meanwhile. The node's clock moves
// only when the harness moves it, so no lease renewal falls inside, and
// every append is due the moment it is issued, so it commits inside
// StartAppend without arming a timer.
func TestNodeOpAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	h := newHarness(t, harnessConfig{})
	*h.turns = 0 // harnessLatency: every append commits at once
	n := h.primary
	var mallocs uint64
	counted := func(fn func()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	submit := func(argv [][]byte) (c Call) {
		counted(func() {
			var r Run
			c = n.Add(&r, Request{Argv: argv})
			n.step(input{kind: inTask, t: r.head})
		})
		return c
	}
	// answer steps the node on each append in flight, which the log has
	// answered for by the time StartAppend returned.
	answer := func(calls ...Call) {
		for len(n.issued) > 0 {
			if !done(n.issued[0].p) {
				t.Fatal("an append due at once is still in flight after StartAppend returned")
			}
			counted(func() { n.step(input{kind: inHead}) })
		}
		for _, c := range calls {
			if v, _, err := c.Wait(context.Background()); err != nil || v.IsError() {
				t.Fatalf("%s: %v, %v", c.t.name, v, err)
			}
		}
		if err := n.checkTurn(h.log); err != nil {
			t.Fatal(err)
		}
	}
	mset := [][]byte{[]byte("MSET")}
	for i := 0; i < 500; i++ {
		mset = append(mset, []byte(fmt.Sprintf("key:%08d", i)), []byte("value"))
	}
	set, get := [][]byte{[]byte("SET"), []byte("k"), []byte("v")}, [][]byte{[]byte("GET"), []byte("k")}
	for _, c := range []struct {
		argv [][]byte
		max  float64
		ops  int
	}{
		{set, 11, 2000},
		{get, 2.1, 2000},
		// 500 of these are the stored buffers, one per key (1 045 per MSET
		// before its keys were views and its key list a scan, 529 while a
		// cross-slot MSET parked keyspace shards from a goroutine of its
		// own).
		{mset, 524, 200},
	} {
		for i := 0; i < c.ops/4; i++ {
			answer(submit(c.argv))
		}
		mallocs = 0
		for i := 0; i < c.ops; i++ {
			answer(submit(c.argv))
		}
		if per := float64(mallocs) / float64(c.ops); per > c.max {
			t.Errorf("%s: %.1f allocations per command, want <= %.1f", c.argv[0], per, c.max)
		} else {
			t.Logf("%s: %.1f allocations per command", c.argv[0], per)
		}
	}

	// A GET of a key whose SET is still in flight: the read joins the SET's
	// entry and is answered with it. Counted per pair.
	const pairs, maxPair = 50, 14
	pair := func() {
		s := submit(set)
		answer(s, submit(get))
	}
	pair()
	gated := n.Stats().GatedReads.Load()
	mallocs = 0
	for i := 0; i < pairs; i++ {
		pair()
	}
	if got := n.Stats().GatedReads.Load() - gated; got != pairs {
		t.Fatalf("%d of %d GETs gated on the SET in flight", got, pairs)
	}
	if per := float64(mallocs) / pairs; per > maxPair {
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
