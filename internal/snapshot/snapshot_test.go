package snapshot

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/conformance"
	"memorydb/internal/engine"
	"memorydb/internal/s3"
	"memorydb/internal/store"
	"memorydb/internal/txlog"
)

func populatedEngine(t testing.TB) *engine.Engine {
	t.Helper()
	e := engine.New(clock.NewSim(time.Unix(1700000000, 0)))
	for _, cmd := range [][]string{
		{"SET", "str", "value"},
		{"SET", "volatile", "v", "EX", "3600"},
		{"HSET", "hash", "f1", "a", "f2", "b"},
		{"RPUSH", "list", "x", "y"},
		{"SADD", "set", "m1", "m2", "m3"},
		{"ZADD", "zset", "1.5", "a", "-2", "b"},
		{"XADD", "stream", "5-1", "f", "v"},
		{"PFADD", "hll", "e1", "e2", "e3"},
	} {
		mustExec(t, e, cmd)
	}
	return e
}

func mustExec(t testing.TB, e *engine.Engine, cmd []string) {
	t.Helper()
	argv := make([][]byte, len(cmd))
	for i, a := range cmd {
		argv[i] = []byte(a)
	}
	if r := e.Exec(argv); r.Reply.IsError() {
		t.Fatalf("%v: %v", cmd, r.Reply)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	e := populatedEngine(t)
	meta := Meta{ShardID: "s1", EngineVersion: 2, LogPos: txlog.EntryID{Seq: 42}, LogChecksum: 0xabc}
	var buf bytes.Buffer
	if err := Write(&buf, e.DB(), meta); err != nil {
		t.Fatal(err)
	}
	db, gotMeta, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if db.Len() != e.DB().Len() {
		t.Fatalf("restored %d keys, want %d", db.Len(), e.DB().Len())
	}
	// Compare every object through engine probes.
	restored := engine.New(clock.NewSim(time.Unix(1700000000, 0)))
	restored.ResetDB(db)
	for _, probe := range [][]string{
		{"GET", "str"}, {"PTTL", "volatile"}, {"HGETALL", "hash"},
		{"LRANGE", "list", "0", "-1"}, {"SMEMBERS", "set"},
		{"ZRANGE", "zset", "0", "-1", "WITHSCORES"},
		{"XRANGE", "stream", "-", "+"}, {"PFCOUNT", "hll"},
	} {
		argv := make([][]byte, len(probe))
		for i, a := range probe {
			argv[i] = []byte(a)
		}
		a := e.Exec(argv).Reply
		b := restored.Exec(argv).Reply
		if !a.Equal(b) {
			t.Fatalf("%v: original %v, restored %v", probe, a, b)
		}
	}
}

// TestFullPlusDeltaRoundTripAllKinds layers a delta that rewrites a key of
// every kind (the HyperLogLog string included), drops one and adds a
// volatile one onto the full image it follows, and demands the exact
// keyspace back: kinds, contents, TTLs, and the tombstoned key gone.
func TestFullPlusDeltaRoundTripAllKinds(t *testing.T) {
	e := populatedEngine(t)
	meta := Meta{ShardID: "s1", EngineVersion: 2, LogPos: txlog.EntryID{Seq: 42}, LogChecksum: 0xabc}
	var full, delta bytes.Buffer
	if err := Write(&full, e.DB(), meta); err != nil {
		t.Fatal(err)
	}
	var touched []string
	for _, cmd := range [][]string{
		{"APPEND", "str", "+more"},
		{"DEL", "volatile"},
		{"SET", "fresh", "v", "PX", "5000"},
		{"HSET", "hash", "f3", "c"},
		{"LPUSH", "list", "w"},
		{"SREM", "set", "m1"},
		{"ZADD", "zset", "7", "c"},
		{"XADD", "stream", "6-0", "g", "w"},
		{"PFADD", "hll", "e4"},
	} {
		mustExec(t, e, cmd)
		touched = append(touched, cmd[1])
	}
	dmeta := Meta{ShardID: "s1", EngineVersion: 2, LogPos: txlog.EntryID{Seq: 51}, Kind: KindDelta, BasePos: meta.LogPos, ChainDepth: 1}
	if err := WriteDelta(&delta, e.DB(), touched, dmeta); err != nil {
		t.Fatal(err)
	}
	db, _, err := Read(&full)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Peek("volatile"); !ok {
		t.Fatal("the full image lost the key the delta is about to tombstone")
	}
	if got, err := ReadInto(&delta, db); err != nil || got != dmeta {
		t.Fatalf("delta: meta %+v, err %v", got, err)
	}
	restored := engine.New(clock.NewSim(time.Unix(1700000000, 0)))
	restored.ResetDB(db)
	if got, want := conformance.StateDigest(restored), conformance.StateDigest(e); got != want {
		t.Fatalf("full+delta restored\n%s\nwant\n%s", got, want)
	}
	if db.Len() != e.DB().Len() || db.Len() != 8 {
		t.Fatalf("restored %d keys, original %d, want 8", db.Len(), e.DB().Len())
	}
}

// TestRestoreChargesWhatCommandsCharged builds a key of each aggregate
// kind by commands — adds, overwrites and removals — then restores it from
// a snapshot of it: the restored keyspace must report the used_bytes the
// original does. A replica bootstrapped from a snapshot charges what its
// primary charges for the same contents.
func TestRestoreChargesWhatCommandsCharged(t *testing.T) {
	for _, c := range []struct {
		kind string
		cmds [][]string
	}{
		{"hash", [][]string{{"HSET", "k", "f1", "a", "f2", "bb", "f3", "c"}, {"HSET", "k", "f1", "longer"},
			{"HINCRBY", "k", "n", "41"}, {"HINCRBYFLOAT", "k", "x", "1.5"}, {"HSETNX", "k", "f4", "d"}, {"HDEL", "k", "f2"}}},
		{"set", [][]string{{"SADD", "k", "m1", "m2", "m3", "m4"}, {"SREM", "k", "m2"}, {"SMOVE", "k", "other", "m3"}}},
		{"list", [][]string{{"RPUSH", "k", "a", "b", "c", "d", "e"}, {"LPUSH", "k", "z"}, {"LSET", "k", "1", "longer"},
			{"LINSERT", "k", "BEFORE", "c", "ins"}, {"LREM", "k", "1", "d"}, {"LTRIM", "k", "1", "-1"}, {"RPOP", "k"}}},
		{"zset", [][]string{{"ZADD", "k", "1", "a", "2", "b", "3", "c"}, {"ZINCRBY", "k", "5", "a"}, {"ZREM", "k", "b"},
			{"ZADD", "k", "4", "d"}, {"ZPOPMIN", "k"}}},
		{"stream", [][]string{{"XADD", "k", "1-0", "f", "v"}, {"XADD", "k", "2-0", "g", "longer"},
			{"XADD", "k", "3-0", "h", "w"}, {"XDEL", "k", "2-0"}, {"XTRIM", "k", "MAXLEN", "1"}}},
	} {
		e := engine.New(clock.NewSim(time.Unix(1700000000, 0)))
		for _, cmd := range c.cmds {
			mustExec(t, e, cmd)
		}
		mustExec(t, e, []string{"DEL", "other"})
		var buf bytes.Buffer
		if err := Write(&buf, e.DB(), Meta{ShardID: "s1"}); err != nil {
			t.Fatal(err)
		}
		db, _, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := db.UsedBytes(), e.DB().UsedBytes(); got != want {
			t.Errorf("a %s restored from its snapshot reports used_bytes %d, the one commands built %d", c.kind, got, want)
		}
	}
}

// TestDifferentialRestoreCharges extends the conformance differential
// across a snapshot: after every generated command, with removal churn, a
// snapshot of the engine's keyspace restores to one charged what the
// engine's is, kind by kind. The key pool is small, so few aggregates live
// to the end; checking at every step sees them while they do.
func TestDifferentialRestoreCharges(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		g := conformance.NewGenerator(conformance.GenConfig{Seed: seed})
		e, _ := conformance.NewEnginePair()
		for round := 1; round <= 3000; round++ {
			args := g.Next()
			argv := make([][]byte, len(args))
			for i, a := range args {
				argv[i] = []byte(a)
			}
			if res := e.Exec(argv); !res.Mutated() {
				continue
			}
			var buf bytes.Buffer
			if err := Write(&buf, e.DB(), Meta{ShardID: "s1"}); err != nil {
				t.Fatal(err)
			}
			db, _, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if d := conformance.ChargeDivergence(e.DB(), db); d != "" {
				t.Fatalf("seed %d, after %q: the engine and its restored snapshot differ in %s", seed, args, d)
			}
		}
	}
}

func TestSnapshotDetectsCorruption(t *testing.T) {
	e := populatedEngine(t)
	var buf bytes.Buffer
	if err := Write(&buf, e.DB(), Meta{ShardID: "s1"}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte in the body.
	data[len(data)/2] ^= 0xff
	if _, _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("corrupted snapshot accepted: %v", err)
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	e := populatedEngine(t)
	var buf bytes.Buffer
	Write(&buf, e.DB(), Meta{ShardID: "s1"})
	data := buf.Bytes()
	for _, n := range []int{0, 4, len(data) / 2, len(data) - 1} {
		if _, _, err := Read(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncated snapshot (%d bytes) accepted", n)
		}
	}
}

func TestSnapshotRejectsBadMagic(t *testing.T) {
	if _, _, err := Read(bytes.NewReader([]byte("NOTASNAPSHOT....."))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestManagerLatestOrdering(t *testing.T) {
	mgr := NewManager(s3.New(), "snaps")
	db := store.NewDB()
	for _, seq := range []uint64{5, 100, 20} {
		meta := Meta{ShardID: "s1", LogPos: txlog.EntryID{Seq: seq}}
		if err := mgr.Save(db, meta); err != nil {
			t.Fatal(err)
		}
	}
	chain, ok, err := mgr.Resolve("s1", false)
	if err != nil || !ok {
		t.Fatalf("Resolve: %v %v", ok, err)
	}
	if chain.Tip.LogPos.Seq != 100 {
		t.Fatalf("Resolve picked seq %d, want 100 (zero-padded key ordering)", chain.Tip.LogPos.Seq)
	}
	if _, ok, _ := mgr.Resolve("other-shard", false); ok {
		t.Fatal("Resolve for unknown shard reported ok")
	}
}

// buildLoggedShard appends n SET commands to a log through an engine and
// returns (log, engine) — a minimal primary stand-in for builder tests.
func buildLoggedShard(t *testing.T, n int) (*txlog.Log, *engine.Engine) {
	t.Helper()
	svc := txlog.NewService(txlog.Config{})
	log, _ := svc.CreateLog("s1")
	e := engine.New(clock.NewReal())
	after := txlog.ZeroID
	ctx := context.Background()
	for i := 0; i < n; i++ {
		res := e.Exec([][]byte{[]byte("SET"), []byte("k" + string(rune('a'+i%26))), []byte{byte('0' + i%10)}})
		payload := res.Effects
		id, err := log.Append(ctx, after, txlog.Entry{Type: txlog.EntryData, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		after = id
	}
	return log, e
}

func TestBuilderFullSnapshotAndRestore(t *testing.T) {
	log, primary := buildLoggedShard(t, 40)
	mgr := NewManager(s3.New(), "snaps")
	ctx := context.Background()
	meta, err := (&Builder{Manager: mgr, Log: log, ShardID: "s1", EngineVersion: 2}).Full(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if meta.LogPos != log.CommittedTail() {
		t.Fatalf("snapshot pos %v, tail %v", meta.LogPos, log.CommittedTail())
	}
	chain, ok, err := mgr.Resolve("s1", false)
	if err != nil || !ok {
		t.Fatalf("Resolve: %v %v", ok, err)
	}
	if want, _ := log.ChecksumAt(meta.LogPos); chain.Tip.LogChecksum == 0 || chain.Tip.LogChecksum != want {
		t.Fatalf("snapshot recorded log checksum %#x, log has %#x", chain.Tip.LogChecksum, want)
	}
	if chain.DB.Len() != primary.DB().Len() {
		t.Fatalf("full snapshot has %d keys, primary %d", chain.DB.Len(), primary.DB().Len())
	}
}

// TestBuilderFullFromPreviousSnapshot: a fresh builder (a restarted
// process) starts from the stored chain, not from the head of the log.
func TestBuilderFullFromPreviousSnapshot(t *testing.T) {
	log, _ := buildLoggedShard(t, 10)
	mgr := NewManager(s3.New(), "snaps")
	ctx := context.Background()
	if _, err := (&Builder{Manager: mgr, Log: log, ShardID: "s1", EngineVersion: 2}).Full(ctx); err != nil {
		t.Fatal(err)
	}
	// More writes, then a second snapshot that starts from the first.
	e := engine.New(clock.NewReal())
	after := log.CommittedTail()
	res := e.Exec([][]byte{[]byte("SET"), []byte("extra"), []byte("v")})
	if _, err := log.Append(ctx, after, txlog.Entry{Type: txlog.EntryData, Payload: res.Effects}); err != nil {
		t.Fatal(err)
	}
	second := &Builder{Manager: mgr, Log: log, ShardID: "s1", EngineVersion: 2}
	meta2, err := second.Full(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if meta2.LogPos != log.CommittedTail() {
		t.Fatalf("second snapshot pos %v", meta2.LogPos)
	}
	if st := second.Stats(); st.Pos != meta2.LogPos || mgr.Health("s1").Compactions.Load() != 2 {
		t.Fatalf("second builder at %v after %d fulls", st.Pos, mgr.Health("s1").Compactions.Load())
	}
	chain, _, _ := mgr.Resolve("s1", false)
	if _, ok := chain.DB.Peek("extra"); !ok {
		t.Fatal("second snapshot missing suffix write")
	}
}

// TestVerifyAcceptsGoodSnapshot: the pass after a full rebuilds
// the builder's copy from it, and a sound chain passes all three gates.
func TestVerifyAcceptsGoodSnapshot(t *testing.T) {
	log, _ := buildLoggedShard(t, 30)
	mgr := NewManager(s3.New(), "snaps")
	ctx := context.Background()
	b := &Builder{Manager: mgr, Log: log, ShardID: "s1", EngineVersion: 2}
	if _, err := b.Full(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Tick(ctx); err != nil {
		t.Fatalf("the rehearsal of a good snapshot: %v", err)
	}
	if got, alarms := b.Stats().Rehearsals, alarms(mgr.Flight); got != 1 || len(alarms) != 0 {
		t.Fatalf("%d rehearsals, alarms %q; want one that passed", got, alarms)
	}
}

// TestVerifyRejectsTamperedSnapshot: a well-formed snapshot
// whose stored log checksum disagrees with the log at its position fails
// gate 2 and is quarantined, and the builder rebuilds from the log.
func TestVerifyRejectsTamperedSnapshot(t *testing.T) {
	log, _ := buildLoggedShard(t, 30)
	mgr := NewManager(s3.New(), "snaps")
	ctx := context.Background()
	b := &Builder{Manager: mgr, Log: log, ShardID: "s1", EngineVersion: 2}
	meta, err := b.Full(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the stored snapshot with one claiming the same position
	// but different content (well-formed, wrong data) — the log-checksum
	// gate must catch it.
	bad := engine.New(clock.NewReal())
	bad.Exec([][]byte{[]byte("SET"), []byte("evil"), []byte("data")})
	var buf bytes.Buffer
	if err := Write(&buf, bad.DB(), Meta{ShardID: "s1", LogPos: meta.LogPos, LogChecksum: 0xbad}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SaveRaw("s1", meta.LogPos, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if got := alarms(mgr.Flight); len(got) != 1 || !strings.Contains(got[0], txlog.ErrChecksumMismatch.Error()) {
		t.Fatalf("alarms = %q, want one checksum mismatch", got)
	}
	if _, ok, _ := mgr.Resolve("s1", false); ok {
		t.Fatal("the tampered snapshot was not quarantined")
	}
	if _, ok := b.eng.DB().Peek("evil"); ok || b.eng.DB().Len() == 0 {
		t.Fatal("the builder rebuilt its copy from the tampered snapshot, not the log")
	}
}

// TestVerifyChecksumEntriesDuringReplay: gate 3 is the
// builder's own drain from the rebuilt chain's tip, which chains the
// running checksum from the tip's stored value across the log's checksum
// entries.
func TestVerifyChecksumEntriesDuringReplay(t *testing.T) {
	svc := txlog.NewService(txlog.Config{})
	log, _ := svc.CreateLog("s1")
	mgr := NewManager(s3.New(), "snaps")
	ctx := context.Background()
	b := &Builder{Manager: mgr, Log: log, ShardID: "s1", EngineVersion: 2}
	// A full at position zero: empty dataset, checksum 0.
	if _, err := b.Full(ctx); err != nil {
		t.Fatal(err)
	}
	// Primary-injected checksum entries above it, so the rehearsal
	// replays across them.
	e := engine.New(clock.NewReal())
	after := txlog.ZeroID
	var running uint64
	for i := 0; i < 20; i++ {
		res := e.Exec([][]byte{[]byte("SET"), []byte{byte('a' + i%26)}, []byte("v")})
		payload := res.Effects
		id, err := log.Append(ctx, after, txlog.Entry{Type: txlog.EntryData, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		after = id
		running = txlog.ChainChecksum(running, payload)
		if i%5 == 4 {
			id, err = log.Append(ctx, after, txlog.Entry{Type: txlog.EntryChecksum, Payload: txlog.EncodeChecksumPayload(running)})
			if err != nil {
				t.Fatal(err)
			}
			after = id
		}
	}
	if err := b.Tick(ctx); err != nil {
		t.Fatalf("rehearsal across checksum entries: %v", err)
	}
	if got := b.Stats().Rehearsals; got != 1 || len(alarms(mgr.Flight)) != 0 {
		t.Fatalf("%d rehearsals, alarms %q; want one that passed", got, alarms(mgr.Flight))
	}
	// A checksum entry that disagrees with the chain over the payloads
	// before it fails the rehearsal of the next full.
	if _, err := b.Full(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(ctx, log.CommittedTail(), txlog.Entry{Type: txlog.EntryChecksum, Payload: txlog.EncodeChecksumPayload(running + 1)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Tick(ctx); !errors.Is(err, txlog.ErrChecksumMismatch) {
		t.Fatalf("rehearsal across a wrong checksum entry = %v, want ErrChecksumMismatch", err)
	}
	if got := alarms(mgr.Flight); b.Stats().Rehearsals != 2 || len(got) != 1 || !strings.Contains(got[0], "verification failed") {
		t.Fatalf("%d rehearsals, alarms %q; want the second to fail", b.Stats().Rehearsals, got)
	}
}
