package snapshot

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/engine"
	"memorydb/internal/faultpoint"
	"memorydb/internal/s3"
	"memorydb/internal/txlog"
)

// shardHarness is a minimal primary stand-in for builder tests: an engine
// whose effects are appended to a real segmented log, plus a model map of
// the expected final string keyspace.
type shardHarness struct {
	t     *testing.T
	log   *txlog.Log
	eng   *engine.Engine
	after txlog.EntryID
	want  map[string]string
}

func newShardHarness(t *testing.T, segEntries int) *shardHarness {
	t.Helper()
	svc := txlog.NewService(txlog.Config{SegmentEntries: segEntries})
	log, err := svc.CreateLog("s1")
	if err != nil {
		t.Fatal(err)
	}
	return &shardHarness{
		t: t, log: log, eng: engine.New(clock.NewReal()),
		want: make(map[string]string),
	}
}

// do executes one command on the primary engine and appends its effects.
func (h *shardHarness) do(args ...string) {
	h.t.Helper()
	argv := make([][]byte, len(args))
	for i, a := range args {
		argv[i] = []byte(a)
	}
	res := h.eng.Exec(argv)
	if res.Reply.IsError() {
		h.t.Fatalf("%v: %s", args, res.Reply.Text())
	}
	id, err := h.log.Append(context.Background(), h.after,
		txlog.Entry{Type: txlog.EntryData, Payload: res.Effects})
	if err != nil {
		h.t.Fatal(err)
	}
	h.after = id
	switch args[0] {
	case "SET":
		h.want[args[1]] = args[2]
	case "DEL":
		delete(h.want, args[1])
	case "FLUSHALL":
		h.want = make(map[string]string)
	}
}

// checkRestore materializes the newest usable chain, replays the log
// suffix above its tip, and requires the result to equal the model.
func (h *shardHarness) checkRestore(mgr *Manager) Chain {
	h.t.Helper()
	chain, ok, err := mgr.Resolve("s1", false)
	if err != nil {
		h.t.Fatal(err)
	}
	eng := engine.New(clock.NewReal())
	if ok {
		eng.ResetDB(chain.DB)
	}
	replay := txlog.NewReplayer(engine.Version, chain.Tip.LogChecksum)
	if _, err := replay.Range(h.log, chain.Tip.LogPos, h.log.CommittedTail(),
		func(e txlog.Entry) error { return eng.Apply(e.Payload) }); err != nil {
		h.t.Fatalf("replay above chain tip %v: %v", chain.Tip.LogPos, err)
	}
	if got, want := eng.DB().Len(), len(h.want); got != want {
		h.t.Fatalf("restored keyspace has %d keys, want %d", got, want)
	}
	for k, want := range h.want {
		res := eng.Exec([][]byte{[]byte("GET"), []byte(k)})
		if res.Reply.Text() != want {
			h.t.Fatalf("restored GET %s = %q, want %q", k, res.Reply.Text(), want)
		}
	}
	return chain
}

// TestBuilderDeltaAndCompactionCadence drives the forkless builder through
// its full production cycle: a bootstrap full snapshot, DeltaInterval-paced
// incremental deltas, and a chain-resetting compaction after CompactEvery
// deltas — checking the health counters and chain meta at each step.
func TestBuilderDeltaAndCompactionCadence(t *testing.T) {
	h := newShardHarness(t, 8)
	mgr := NewManager(s3.New(), "snaps")
	b := &Builder{Manager: mgr, Log: h.log, ShardID: "s1", EngineVersion: 1,
		DeltaInterval: 4, CompactEvery: 3}
	ctx := context.Background()

	// First cadence worth of writes: bootstrap found no chain, so the
	// first emit must be a full snapshot.
	for i := 0; i < 4; i++ {
		h.do("SET", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Health("s1").Compactions.Load(); got != 1 {
		t.Fatalf("first emit produced %d compactions, want 1 (no chain to extend)", got)
	}
	chain := h.checkRestore(mgr)
	if chain.Tip.Kind != KindFull || chain.Depth != 0 {
		t.Fatalf("first emit = %v depth %d, want full depth 0", chain.Tip.Kind, chain.Depth)
	}

	// Three more cadences: each must extend the chain by one delta.
	for d := 1; d <= 3; d++ {
		for i := 0; i < 4; i++ {
			h.do("SET", fmt.Sprintf("k%d-%d", d, i), "x")
		}
		if err := b.Tick(ctx); err != nil {
			t.Fatal(err)
		}
		chain = h.checkRestore(mgr)
		if chain.Tip.Kind != KindDelta || chain.Depth != d {
			t.Fatalf("emit %d: tip %v depth %d, want delta depth %d", d, chain.Tip.Kind, chain.Depth, d)
		}
		if chain.Tip.BasePos.Seq == 0 {
			t.Fatalf("delta %d has no parent link", d)
		}
	}
	if got := mgr.Health("s1").DeltasEmitted.Load(); got != 3 {
		t.Fatalf("DeltasEmitted = %d, want 3", got)
	}
	if got := mgr.Health("s1").ChainDepth.Load(); got != 3 {
		t.Fatalf("ChainDepth gauge = %d, want 3", got)
	}

	// The fourth cadence hits CompactEvery: the chain resets to a fresh
	// full snapshot at depth 0.
	for i := 0; i < 4; i++ {
		h.do("SET", fmt.Sprintf("c%d", i), "y")
	}
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	chain = h.checkRestore(mgr)
	if chain.Tip.Kind != KindFull || chain.Depth != 0 {
		t.Fatalf("post-compaction chain = %v depth %d, want full depth 0", chain.Tip.Kind, chain.Depth)
	}
	if got := mgr.Health("s1").Compactions.Load(); got != 2 {
		t.Fatalf("Compactions = %d, want 2", got)
	}
	if got := mgr.Health("s1").ChainDepth.Load(); got != 0 {
		t.Fatalf("ChainDepth gauge = %d after compaction, want 0", got)
	}
}

// TestBuilderDeltaCarriesTombstones: a key deleted between emits must be
// recorded in the next delta as a tombstone, so a chain restore does not
// resurrect it from the base full snapshot.
func TestBuilderDeltaCarriesTombstones(t *testing.T) {
	h := newShardHarness(t, 8)
	mgr := NewManager(s3.New(), "snaps")
	b := &Builder{Manager: mgr, Log: h.log, ShardID: "s1", EngineVersion: 1,
		DeltaInterval: 3, CompactEvery: 10}
	ctx := context.Background()

	h.do("SET", "keep", "1")
	h.do("SET", "doomed", "2")
	h.do("SET", "pad0", "x")
	if err := b.Tick(ctx); err != nil { // full: contains "doomed"
		t.Fatal(err)
	}
	h.do("DEL", "doomed")
	h.do("SET", "pad1", "x")
	h.do("SET", "pad2", "x")
	if err := b.Tick(ctx); err != nil { // delta: tombstone for "doomed"
		t.Fatal(err)
	}
	chain := h.checkRestore(mgr)
	if chain.Tip.Kind != KindDelta {
		t.Fatalf("second emit kind = %v, want delta", chain.Tip.Kind)
	}
	if _, present := chain.DB.Peek("doomed"); present {
		t.Fatal("deleted key resurrected by chain restore — delta lacks its tombstone")
	}
	if _, present := chain.DB.Peek("keep"); !present {
		t.Fatal("kept key missing after chain restore")
	}
}

// TestBuilderFlushAllForcesFull: wholesale rewrites invalidate per-key
// dirty tracking, so the next emit after FLUSHALL must be a full snapshot
// even though the chain is nowhere near CompactEvery.
func TestBuilderFlushAllForcesFull(t *testing.T) {
	h := newShardHarness(t, 8)
	mgr := NewManager(s3.New(), "snaps")
	b := &Builder{Manager: mgr, Log: h.log, ShardID: "s1", EngineVersion: 1,
		DeltaInterval: 3, CompactEvery: 100}
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		h.do("SET", fmt.Sprintf("a%d", i), "1")
	}
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	h.do("SET", "b0", "2")
	h.do("FLUSHALL")
	h.do("SET", "after-flush", "3")
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	chain := h.checkRestore(mgr)
	if chain.Tip.Kind != KindFull {
		t.Fatalf("emit after FLUSHALL = %v, want full", chain.Tip.Kind)
	}
	if chain.DB.Len() != 1 {
		t.Fatalf("post-FLUSHALL snapshot has %d keys, want 1", chain.DB.Len())
	}
}

// TestChainFallbackAnyDamagedSuffix is the chain-resolution property test:
// for every length j of damaged newest links and every damage mode (bit
// rot, torn truncation, missing file), resolution must quarantine or skip
// the damaged suffix and restore from the longest intact prefix — and the
// chain restore plus log replay must still reproduce the exact keyspace.
// Damaging every link (j = depth+1 reaches the base full snapshot) must
// degrade to pure log replay (ok=false), never a hard failure.
func TestChainFallbackAnyDamagedSuffix(t *testing.T) {
	const depth = 4
	for _, mode := range []string{"corrupt", "torn", "missing"} {
		for j := 1; j <= depth+1; j++ {
			t.Run(fmt.Sprintf("%s-%d", mode, j), func(t *testing.T) {
				h := newShardHarness(t, 8)
				mgr := NewManager(s3.New(), "snaps")
				b := &Builder{Manager: mgr, Log: h.log, ShardID: "s1", EngineVersion: 1,
					DeltaInterval: 3, CompactEvery: 100}
				ctx := context.Background()
				// Build full + depth deltas, mixing SETs, overwrites, DELs.
				for d := 0; d <= depth; d++ {
					h.do("SET", fmt.Sprintf("link%d", d), fmt.Sprintf("v%d", d))
					h.do("SET", "rolling", fmt.Sprintf("r%d", d))
					if d%2 == 1 {
						h.do("DEL", fmt.Sprintf("link%d", d-1))
					} else {
						h.do("SET", "pad", fmt.Sprintf("p%d", d))
					}
					if err := b.Tick(ctx); err != nil {
						t.Fatal(err)
					}
				}
				// Damage the newest j links.
				keys, err := mgr.store.List(mgr.prefix + "/s1/")
				if err != nil {
					t.Fatal(err)
				}
				if len(keys) != depth+1 {
					t.Fatalf("chain has %d links, want %d", len(keys), depth+1)
				}
				for i := 0; i < j; i++ {
					k := keys[len(keys)-1-i]
					switch mode {
					case "corrupt":
						data, err := mgr.store.Get(k)
						if err != nil {
							t.Fatal(err)
						}
						data = bytes.Clone(data) // a stored object is immutable
						data[len(data)/3] ^= 0xff
						if err := mgr.store.Put(k, data); err != nil {
							t.Fatal(err)
						}
					case "torn":
						data, err := mgr.store.Get(k)
						if err != nil {
							t.Fatal(err)
						}
						if err := mgr.store.Put(k, data[:len(data)*2/3]); err != nil {
							t.Fatal(err)
						}
					case "missing":
						if err := mgr.store.Delete(k); err != nil {
							t.Fatal(err)
						}
					}
				}
				chain, ok, err := mgr.Resolve("s1", false)
				if err != nil {
					t.Fatalf("resolution failed hard: %v", err)
				}
				if j <= depth {
					if !ok {
						t.Fatalf("no usable chain with %d intact links remaining", depth+1-j)
					}
					if wantDepth := depth - j; chain.Depth != wantDepth {
						t.Fatalf("restored chain depth %d, want %d", chain.Depth, wantDepth)
					}
				} else if ok {
					t.Fatal("every link damaged but resolution still claimed a chain")
				}
				// The survivor prefix plus log replay reproduces the keyspace.
				h.checkRestore(mgr)
				if mode != "missing" && mgr.TornDetected() == 0 {
					t.Fatal("damaged links left TornDetected at 0")
				}
			})
		}
	}
}

// TestBuilderJudgesEachFullOnce pins when the builder rehearses a
// restore over a fixed schedule: on the pass after each full, so every
// full is judged once, no delta tip is judged and no tip twice.
func TestBuilderJudgesEachFullOnce(t *testing.T) {
	h := newShardHarness(t, 8)
	mgr := NewManager(s3.New(), "snaps")
	b := &Builder{Manager: mgr, Log: h.log, ShardID: "s1", EngineVersion: 1,
		DeltaInterval: 4, CompactEvery: 3}
	ctx := context.Background()

	fullLanded := false
	for round := 0; round < 12; round++ {
		for i := 0; i < 4; i++ {
			h.do("SET", fmt.Sprintf("k%d", i), fmt.Sprintf("r%d", round))
		}
		fulls, rehearsals := mgr.Health("s1").Compactions.Load(), b.Stats().Rehearsals
		if err := b.Tick(ctx); err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if fullLanded {
			want = 1
		}
		if got := b.Stats().Rehearsals - rehearsals; got != want {
			t.Fatalf("round %d ran %d rehearsals, want %d (a full landed last pass: %v)", round, got, want, fullLanded)
		}
		fullLanded = mgr.Health("s1").Compactions.Load() > fulls
	}
	// A quiet pass judges the last full, if one is pending, and nothing
	// else; a second one judges nothing.
	for range 2 {
		if err := b.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Stats().Rehearsals; got != 3 || got != mgr.Health("s1").Compactions.Load() {
		t.Fatalf("%d rehearsals for %d fulls, want 3 for 3", got, mgr.Health("s1").Compactions.Load())
	}
	h.checkRestore(mgr)
}

// TestBuilderPrunesBelowVerifiedBase: a full that passes its rehearsal
// removes every version below it, since restoring one would need log
// entries that the same verdict trims. After three verified fulls the
// store holds only the newest chain, and a fresh restore still works.
func TestBuilderPrunesBelowVerifiedBase(t *testing.T) {
	h := newShardHarness(t, 8)
	mgr := NewManager(s3.New(), "snaps")
	b := &Builder{Manager: mgr, Log: h.log, ShardID: "s1", EngineVersion: 1,
		DeltaInterval: 4, CompactEvery: 3}
	ctx := context.Background()

	for round := 0; round < 13; round++ {
		for i := 0; i < 4; i++ {
			h.do("SET", fmt.Sprintf("k%d", i+round%3), fmt.Sprintf("r%d", round))
		}
		if err := b.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Tick(ctx); err != nil { // judges the last full
		t.Fatal(err)
	}
	if fulls, rehearsals := mgr.Health("s1").Compactions.Load(), b.Stats().Rehearsals; fulls < 3 || rehearsals != fulls {
		t.Fatalf("%d rehearsals for %d fulls, want at least 3 judged", rehearsals, fulls)
	}
	chain, ok, err := mgr.Resolve("s1", true)
	if err != nil || !ok {
		t.Fatalf("newest chain: ok=%v err=%v", ok, err)
	}
	keys, err := mgr.store.List("snaps/s1/")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if seq, _ := seqOfKey(k); seq < chain.Base.LogPos.Seq {
			t.Fatalf("version %s survived below the verified base %d (store: %v)", k, chain.Base.LogPos.Seq, keys)
		}
	}
	if len(keys) != chain.Depth+1 {
		t.Fatalf("store holds %d versions, want the newest chain's %d", len(keys), chain.Depth+1)
	}
	if h.log.TrimBase().Seq == 0 {
		t.Fatal("no verified full trimmed the log")
	}
	h.checkRestore(mgr)
}

// TestBuilderQuarantineForcesFull: a full that fails its rehearsal is
// quarantined, and since the builder's own chain runs through it, the
// next emit is a full, not a delta on the removed base. One fault raises
// one alarm, and from the judgement on the newest snapshot restores.
func TestBuilderQuarantineForcesFull(t *testing.T) {
	h := newShardHarness(t, 8)
	mgr := NewManager(s3.New(), "snaps")
	faults := faultpoint.New(1)
	faults.Arm(faultpoint.SiteSnapBuild, faultpoint.Corrupt, 0) // the bootstrap full
	b := &Builder{Manager: mgr, Log: h.log, ShardID: "s1", EngineVersion: 1,
		DeltaInterval: 2, CompactEvery: 8, Faults: faults}
	ctx := context.Background()

	for round := 0; round < 6; round++ {
		h.do("SET", fmt.Sprintf("a%d", round), "x")
		h.do("SET", fmt.Sprintf("b%d", round), "y")
		fulls := mgr.Health("s1").Compactions.Load()
		if err := b.Tick(ctx); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			continue // the corrupt full is judged on the next pass
		}
		if round == 1 && mgr.Health("s1").Compactions.Load() != fulls+1 {
			t.Fatal("the emit after quarantining the builder's base was not a full")
		}
		chain, ok, err := mgr.Resolve("s1", false)
		if err != nil || !ok || chain.Skipped != 0 {
			t.Fatalf("round %d: newest chain unusable: ok=%v skipped=%d err=%v", round, ok, chain.Skipped, err)
		}
		h.checkRestore(mgr)
	}
	if got := alarms(mgr.Flight); len(got) != 1 {
		t.Fatalf("one corrupt full raised %d alarms, want 1: %q", len(got), got)
	}
}

// TestBuilderTrimRace runs the builder — which trims behind each verified
// full — against a paced writer and a reader following the log like a
// replica tailer (meaningful under -race). The builder trims only to the
// chain *base*, and its own tailer is always at or above the chain tip,
// so it must never observe a trimmed gap, re-bootstrap, or raise a lag
// alarm, however the passes interleave with the writes. A reader the trim
// passes re-bootstraps from the chain, whose tip must not be below the
// trim base: no gap for a tailer either.
func TestBuilderTrimRace(t *testing.T) {
	h := newShardHarness(t, 4)
	mgr := NewManager(s3.New(), "snaps")
	b := &Builder{Manager: mgr, Log: h.log, ShardID: "s1", EngineVersion: 1,
		DeltaInterval: 4, CompactEvery: 3}
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // builder passes as fast as it can
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := b.Tick(ctx); err != nil {
				t.Errorf("builder tick: %v", err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	r := h.log.NewReader(txlog.ZeroID)
	go func() { // the tailer: reads until stopped and caught up
		defer wg.Done()
		for {
			_, ok, err := r.TryNext()
			switch {
			case errors.Is(err, txlog.ErrTrimmed):
				base := h.log.TrimBase()
				chain, found, err := mgr.Resolve("s1", false)
				if err != nil || !found || chain.Tip.LogPos.Less(base) {
					t.Errorf("tailer at %v trimmed past: newest chain tip %v (found %v, err %v) below trim base %v",
						r.Position(), chain.Tip.LogPos, found, err, base)
					return
				}
				r = h.log.NewReader(chain.Tip.LogPos)
			case err != nil:
				t.Errorf("tailer: %v", err)
				return
			case !ok:
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	for i := 0; i < 400; i++ {
		h.do("SET", fmt.Sprintf("race-%d", i%40), fmt.Sprintf("v%d", i))
		time.Sleep(50 * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	if h.log.SegmentStats().Trimmed == 0 {
		t.Fatal("race never trimmed a segment — segment threshold too large to exercise the invariant")
	}
	if mgr.Health("s1").DeltasEmitted.Load() == 0 {
		t.Fatal("race never emitted a delta")
	}
	if r.Position() != h.log.CommittedTail() {
		t.Fatalf("tailer stopped at %v, tail %v", r.Position(), h.log.CommittedTail())
	}
	st := b.Stats()
	if st.Rebootstraps != 0 {
		t.Fatalf("builder re-bootstrapped %d times — trim passed its tailer", st.Rebootstraps)
	}
	if got := mgr.Health("s1").LagAlarms.Load(); got != 0 {
		t.Fatalf("builder raised %d lag alarms during the race", got)
	}
	// Final settle: one more tick drains the tail, and the chain restores
	// the exact keyspace.
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	h.checkRestore(mgr)
}

// probeClock is a clock that calls now on every read. Every engine the
// builder makes reads the builder's Clock once per SET it applies, so a
// probe counts a pass's applies, whichever keyspace takes them.
type probeClock struct {
	clock.Clock
	now func()
}

func (c probeClock) Now() time.Time {
	c.now()
	return c.Clock.Now()
}

// TestBuilderRehearsalHoldsOneKeyspace pins what the pass after a full
// costs: the builder drops its copy before it rebuilds it from the new
// chain, so no entry is applied while it still holds the old one, and it
// replays each suffix entry once, into the rebuilt copy — as many applies
// as a plain pass draining as many entries.
func TestBuilderRehearsalHoldsOneKeyspace(t *testing.T) {
	const entries = 8
	h := newShardHarness(t, 8)
	var b *Builder
	var before *engine.Engine // the copy the builder held when the pass began
	applies, kept := 0, false
	clk := probeClock{Clock: clock.NewReal(), now: func() {
		applies++
		kept = kept || b.eng == before
	}}
	b = &Builder{Manager: NewManager(s3.New(), "snaps"), Log: h.log, ShardID: "s1", EngineVersion: 1,
		DeltaInterval: 1 << 40, Clock: clk}
	ctx := context.Background()
	pass := func(round int) {
		t.Helper()
		for i := 0; i < entries; i++ {
			h.do("SET", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", round))
		}
		before, applies, kept = b.eng, 0, false
		if err := b.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	pass(0)
	pass(1) // a plain pass over as many overwrites, into the copy it held
	plain := applies
	if plain == 0 || !kept {
		t.Fatalf("a plain pass made %d applies (into the copy held before it: %v), want some", plain, kept)
	}
	if _, err := b.Full(ctx); err != nil {
		t.Fatal(err)
	}
	pass(2)
	if b.Stats().Rehearsals != 1 {
		t.Fatalf("the pass after a full reached %d verdicts, want 1", b.Stats().Rehearsals)
	}
	if kept || applies != plain {
		t.Fatalf("the pass after a full made %d applies (a plain pass %d), the old copy still held: %v; want %d, not held",
			applies, plain, kept, plain)
	}
}
