package snapshot

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"memorydb/internal/clock"
	"memorydb/internal/engine"
	"memorydb/internal/s3"
	"memorydb/internal/txlog"
)

// buildSegmentedShard is buildLoggedShard with a small segment threshold so
// trims have sealed segments to drop.
func buildSegmentedShard(t *testing.T, n, segEntries int) (*txlog.Log, *engine.Engine) {
	t.Helper()
	svc := txlog.NewService(txlog.Config{SegmentEntries: segEntries})
	log, _ := svc.CreateLog("s1")
	e := engine.New(clock.NewReal())
	after := txlog.ZeroID
	ctx := context.Background()
	for i := 0; i < n; i++ {
		res := e.Exec([][]byte{[]byte("SET"), []byte("k" + string(rune('a'+i%26))), []byte{byte('0' + i%10)}})
		id, err := log.Append(ctx, after, txlog.Entry{Type: txlog.EntryData, Payload: res.Effects})
		if err != nil {
			t.Fatal(err)
		}
		after = id
	}
	return log, e
}

func TestTrimmerTrimsBehindVerifiedSnapshot(t *testing.T) {
	log, _ := buildSegmentedShard(t, 40, 8)
	mgr := NewManager(s3.New(), "snaps")
	ctx := context.Background()
	b := &Builder{Manager: mgr, Log: log, ShardID: "s1", EngineVersion: 2}
	meta, err := b.Full(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The pass after a full rehearses it and trims behind it.
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	trimmed, rehearsals := log.SegmentStats().Trimmed, b.Stats().Rehearsals
	if trimmed == 0 || rehearsals != 1 {
		t.Fatalf("trimmed %d segments over %d rehearsals; want trims after a covering snapshot", trimmed, rehearsals)
	}
	base := log.TrimBase()
	if base.Seq == 0 || base.Seq > meta.LogPos.Seq {
		t.Fatalf("trim base %v outside (0, snapshot pos %v]", base, meta.LogPos)
	}
	// Trim-safety invariant: the snapshot position's checksum must remain
	// addressable (resync and verification both anchor on it), and the
	// retained suffix must still read end to end.
	if _, err := log.ChecksumAt(base); err != nil {
		t.Fatalf("ChecksumAt(trim base): %v", err)
	}
	r := log.NewReader(base)
	for {
		_, ok, err := r.TryNext()
		if err != nil {
			t.Fatalf("reading retained suffix: %v", err)
		}
		if !ok {
			break
		}
	}
	if r.Position() != log.CommittedTail() {
		t.Fatalf("suffix read stopped at %v, tail %v", r.Position(), log.CommittedTail())
	}

	// Unchanged snapshot store: no new full, so no second rehearsal.
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Rehearsals; got != 1 {
		t.Fatalf("pass without a newer snapshot ran %d rehearsals in all, want 1", got)
	}
}

func TestTrimmerRefusesUnverifiedSnapshot(t *testing.T) {
	log, _ := buildSegmentedShard(t, 24, 8)
	mgr := NewManager(s3.New(), "snaps")
	ctx := context.Background()
	b := &Builder{Manager: mgr, Log: log, ShardID: "s1", EngineVersion: 2}
	good, err := b.Full(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Grow the log, then plant a corrupt "snapshot" at the new tail — the
	// newest version by position, but one that can never serve a restore.
	e2 := engine.New(clock.NewReal())
	after := log.CommittedTail()
	for i := 0; i < 16; i++ {
		res := e2.Exec([][]byte{[]byte("SET"), []byte("x"), []byte("y")})
		id, err := log.Append(ctx, after, txlog.Entry{Type: txlog.EntryData, Payload: res.Effects})
		if err != nil {
			t.Fatal(err)
		}
		after = id
	}
	var buf bytes.Buffer
	if err := Write(&buf, e2.DB(), Meta{ShardID: "s1", LogPos: log.CommittedTail()}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0xff
	if err := mgr.SaveRaw("s1", log.CommittedTail(), data); err != nil {
		t.Fatal(err)
	}

	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	// The corrupt snapshot must not authorize trimming past the last good
	// one: everything above good.LogPos stays readable. It is quarantined,
	// and the same pass rebuilds from the good one below it, an unjudged
	// chain: that rebuild is its rehearsal, which trims behind it.
	if base := log.TrimBase(); base.Seq == 0 || base.Seq > good.LogPos.Seq {
		t.Fatalf("trim base %v after verifying the good snapshot, want in (0, %v]", base, good.LogPos)
	}
	if _, ok := log.Get(txlog.EntryID{Seq: good.LogPos.Seq + 1}); !ok {
		t.Fatal("entries above the last verified snapshot were trimmed")
	}
	if chain, _, _ := mgr.Resolve("s1", true); chain.Tip.LogPos != good.LogPos {
		t.Fatalf("newest snapshot after the pass is %v, want the corrupt tip quarantined down to %v", chain.Tip.LogPos, good.LogPos)
	}
	if got := b.Stats().Rehearsals; got != 2 {
		t.Fatalf("%d rehearsals, want 2: the corrupt tip, then the good one below it", got)
	}
	// The next pass has nothing left to judge.
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Rehearsals; got != 2 {
		t.Fatalf("%d rehearsals after a pass with nothing to judge, want 2", got)
	}
}

// TestTrimmerKeepsGoodSnapshotWhenLogSuffixFails: once a snapshot's own
// checksums pass, a rehearsal failure further up the log is the log's
// fault. The snapshot must survive (deleting it, and then each older one
// in turn, would leave nothing to restore from), nothing is trimmed, and
// the failure pages once, however often the builder, meeting the same
// entry in its own drain, rebuilds onto that snapshot.
func TestTrimmerKeepsGoodSnapshotWhenLogSuffixFails(t *testing.T) {
	log, _ := buildSegmentedShard(t, 24, 8)
	mgr := NewManager(s3.New(), "snaps")
	ctx := context.Background()
	b := &Builder{Manager: mgr, Log: log, ShardID: "s1", EngineVersion: 2}
	good, err := b.Full(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bad := txlog.Entry{Type: txlog.EntryChecksum, Payload: txlog.EncodeChecksumPayload(good.LogChecksum + 1)}
	if _, err := log.Append(ctx, log.CommittedTail(), bad); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		// The drain after the judgement fails on the bad entry too, and
		// the builder rebuilds from the kept snapshot.
		if err := b.Tick(ctx); err == nil {
			t.Fatal("builder drained a checksum entry the log contradicts")
		}
	}
	if chain, ok, _ := mgr.Resolve("s1", true); !ok || chain.Tip.LogPos != good.LogPos {
		t.Fatalf("newest snapshot = %v (present %v), want the good one at %v kept", chain.Tip.LogPos, ok, good.LogPos)
	}
	if trimmed := log.SegmentStats().Trimmed; trimmed != 0 || log.TrimBase().Seq != 0 {
		t.Fatalf("trimmed %d segments to base %v behind an unverifiable suffix", trimmed, log.TrimBase())
	}
	if got := b.Stats().Rehearsals; got != 1 {
		t.Fatalf("%d rehearsals, want 1: rebuilding onto a judged chain does not judge it again", got)
	}
	if got := alarms(mgr.Flight); len(got) != 1 || !strings.Contains(got[0], "verification failed") {
		t.Fatalf("alarms = %q, want one verification failure", got)
	}
}
