package txlog

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/trace"
)

// segTestLog builds a log over a service with a small entry threshold so
// rotation and sealing happen within a handful of appends.
func segTestLog(t *testing.T, cfg Config) *Log {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	svc := NewService(cfg)
	l, err := svc.CreateLog("s1")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSegmentRotationAndSeal(t *testing.T) {
	l := segTestLog(t, Config{SegmentEntries: 4})
	after := ZeroID
	for i := 0; i < 10; i++ {
		after = appendData(t, l, after, "payload")
	}
	st := l.SegmentStats()
	if st.Sealed != 2 || st.SealedLive != 2 {
		t.Fatalf("sealed = %d live-sealed = %d, want 2/2", st.Sealed, st.SealedLive)
	}
	if st.LiveSegments != 3 { // two sealed + the active one
		t.Fatalf("live segments = %d, want 3", st.LiveSegments)
	}
	if st.LiveEntries != 10 {
		t.Fatalf("live entries = %d, want 10", st.LiveEntries)
	}
	// Reads cross segment boundaries transparently.
	r := l.NewReader(ZeroID)
	for seq := uint64(1); seq <= 10; seq++ {
		e, ok, err := r.TryNext()
		if err != nil || !ok || e.ID.Seq != seq {
			t.Fatalf("TryNext at %d: %v %v %v", seq, e.ID, ok, err)
		}
	}
	// ChecksumAt works at and across boundaries.
	if _, err := l.ChecksumAt(EntryID{Seq: 4}); err != nil {
		t.Fatalf("ChecksumAt(boundary): %v", err)
	}
	if _, err := l.ChecksumAt(EntryID{Seq: 7}); err != nil {
		t.Fatalf("ChecksumAt(mid): %v", err)
	}
}

func TestSegmentRotationByBytes(t *testing.T) {
	l := segTestLog(t, Config{SegmentEntries: 1 << 20, SegmentBytes: 64})
	after := ZeroID
	for i := 0; i < 6; i++ {
		after = appendData(t, l, after, strings.Repeat("x", 40)) // 2 entries/segment
	}
	if st := l.SegmentStats(); st.Sealed != 3 {
		t.Fatalf("sealed = %d, want 3 (40-byte payloads against a 64-byte threshold)", st.Sealed)
	}
}

func TestCorruptRecordQuarantine(t *testing.T) {
	flight := trace.NewFlight("txlog", 0)
	l := segTestLog(t, Config{SegmentEntries: 4, Flight: flight})
	after := ZeroID
	for i := 0; i < 8; i++ {
		after = appendData(t, l, after, "payload")
	}
	if !l.DamageRecord(3) {
		t.Fatal("DamageRecord(3) failed")
	}
	r := l.NewReader(ZeroID)
	for seq := uint64(1); seq <= 2; seq++ {
		if _, ok, err := r.TryNext(); !ok || err != nil {
			t.Fatalf("read %d: %v %v", seq, ok, err)
		}
	}
	if _, _, err := r.TryNext(); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("read of damaged record: err = %v, want ErrCorruptSegment", err)
	}
	if st := l.SegmentStats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	var quarantines []string
	for _, e := range flight.Events() {
		if e.Kind == trace.EvSegmentQuarantine {
			quarantines = append(quarantines, e.Detail)
		}
	}
	if len(quarantines) != 1 || !strings.Contains(quarantines[0], "quarantined segment [1,4]") {
		t.Fatalf("quarantine events = %q", quarantines)
	}
	// The whole segment is condemned: an undamaged neighbour is
	// unreadable too, and ChecksumAt inside the segment fails loudly.
	if _, ok := l.Get(EntryID{Seq: 2}); ok {
		t.Fatal("Get inside quarantined segment must fail")
	}
	if _, err := l.ChecksumAt(EntryID{Seq: 2}); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("ChecksumAt in quarantined segment: %v", err)
	}
	// The intact suffix still serves: a reader positioned past the
	// quarantined segment (as after a snapshot re-bootstrap) reads on.
	r2 := l.NewReader(EntryID{Seq: 4})
	for seq := uint64(5); seq <= 8; seq++ {
		e, ok, err := r2.TryNext()
		if err != nil || !ok || e.ID.Seq != seq {
			t.Fatalf("suffix read at %d: %v %v %v", seq, e.ID, ok, err)
		}
	}
	// Appends continue (the primary's path does not read old segments).
	appendData(t, l, after, "more")
}

func TestCorruptRecordFaultpoint(t *testing.T) {
	faults := faultpoint.New(1)
	l := segTestLog(t, Config{SegmentEntries: 100, Faults: faults})
	// Corrupt the 3rd data append's stored payload, silently.
	faults.Arm(faultpoint.SiteLogCorruptRecord, faultpoint.Corrupt, 2)
	after := ZeroID
	for i := 0; i < 5; i++ {
		after = appendData(t, l, after, "payload")
	}
	if got := faults.Fired(faultpoint.SiteLogCorruptRecord, faultpoint.Corrupt); got != 1 {
		t.Fatalf("corrupt_record fired = %d, want 1", got)
	}
	r := l.NewReader(ZeroID)
	var sawCorrupt bool
	for i := 0; i < 5; i++ {
		_, ok, err := r.TryNext()
		if errors.Is(err, ErrCorruptSegment) {
			sawCorrupt = true
			break
		}
		if err != nil || !ok {
			t.Fatalf("read %d: %v %v", i, ok, err)
		}
	}
	if !sawCorrupt {
		t.Fatal("reader never detected the silently corrupted record")
	}
	if st := l.SegmentStats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
}

func TestRecoverChainQuarantinesDamagedSealedSegment(t *testing.T) {
	l := segTestLog(t, Config{SegmentEntries: 4})
	after := ZeroID
	for i := 0; i < 12; i++ {
		after = appendData(t, l, after, "payload")
	}
	if !l.DamageRecord(6) { // inside the second sealed segment [5,8]
		t.Fatal("DamageRecord(6) failed")
	}
	q, trunc := l.RecoverChain()
	if q != 1 || trunc != 0 {
		t.Fatalf("RecoverChain = (%d quarantined, %d truncated), want (1, 0)", q, trunc)
	}
	// Undamaged segments still verify and serve.
	r := l.NewReader(ZeroID)
	for seq := uint64(1); seq <= 4; seq++ {
		if _, ok, err := r.TryNext(); !ok || err != nil {
			t.Fatalf("read %d after recovery: %v %v", seq, ok, err)
		}
	}
	if _, _, err := r.TryNext(); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("read into quarantined segment: %v", err)
	}
	// A second pass is idempotent.
	if q, _ := l.RecoverChain(); q != 0 {
		t.Fatalf("second RecoverChain quarantined %d more", q)
	}
}

func TestRecoverChainTruncatesTornTail(t *testing.T) {
	// Slow commits: StartAppend assigns instantly, commits land 30ms
	// later — RecoverChain runs in between, like a service restart with
	// un-replicated tail entries.
	l := segTestLog(t, Config{SegmentEntries: 4, CommitLatency: netsim.Fixed(30 * time.Millisecond)})
	var last *Pending
	after := ZeroID
	for i := 0; i < 3; i++ {
		p, err := l.StartAppend(after, Entry{Type: EntryData, Payload: []byte("torn")})
		if err != nil {
			t.Fatal(err)
		}
		after = p.ID()
		last = p
	}
	if got := l.AssignedTail().Seq; got != 3 {
		t.Fatalf("assigned tail = %d", got)
	}
	q, trunc := l.RecoverChain()
	if q != 0 || trunc != 3 {
		t.Fatalf("RecoverChain = (%d, %d), want (0, 3)", q, trunc)
	}
	if a, c := l.AssignedTail().Seq, l.CommittedTail().Seq; a != 0 || c != 0 {
		t.Fatalf("after truncation assigned=%d committed=%d, want 0/0", a, c)
	}
	if st := l.SegmentStats(); st.TornTruncated != 3 {
		t.Fatalf("TornTruncated = %d, want 3", st.TornTruncated)
	}
	// The torn entries' waiters are told so: never a success for an entry
	// the log no longer holds.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := last.Wait(ctx); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Wait on a truncated entry: %v, want ErrTruncated", err)
	}
	// The log accepts appends from the truncated tail.
	appendData(t, l, ZeroID, "fresh")
	if got := l.CommittedTail().Seq; got != 1 {
		t.Fatalf("committed after the fresh append = %d, want 1", got)
	}
}

// A truncated entry leaves nothing behind that could commit whichever
// entry is assigned its sequence number next: the fresh entry commits at
// its own due time, not at the torn one's.
func TestTruncatedSequenceIsNotCommittedEarly(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	l := segTestLog(t, Config{Clock: sim, CommitLatency: netsim.Fixed(50 * time.Millisecond)})
	torn, err := l.StartAppend(ZeroID, Entry{Type: EntryData, Payload: []byte("torn")})
	if err != nil {
		t.Fatal(err)
	}
	if armed := sim.PendingWaiters(); armed != 1 {
		t.Fatalf("%d timers armed for the torn entry, want 1", armed)
	}
	sim.Advance(40 * time.Millisecond)
	if _, trunc := l.RecoverChain(); trunc != 1 {
		t.Fatalf("RecoverChain truncated %d entries, want 1", trunc)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Told at once, on a clock that has not reached the old due time.
	if _, err := torn.Wait(ctx); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Wait on the truncated entry: %v, want ErrTruncated", err)
	}
	fresh, err := l.StartAppend(ZeroID, Entry{Type: EntryData, Payload: []byte("fresh")})
	if err != nil || fresh.ID().Seq != 1 {
		t.Fatalf("fresh append: %v %v, want seq 1", fresh, err)
	}
	// The torn entry's timer (50 ms) and the fresh one's (90 ms).
	if armed := sim.PendingWaiters(); armed != 2 {
		t.Fatalf("%d timers armed, want 2", armed)
	}
	sim.Advance(10 * time.Millisecond) // 50 ms: the torn entry's due time
	if got := l.CommittedTail().Seq; got != 0 {
		t.Fatalf("seq %d committed at the truncated entry's due time, 40 ms before its own", got)
	}
	if armed := sim.PendingWaiters(); armed != 1 {
		t.Fatalf("the truncated entry's timer left %d timers armed, want the fresh entry's 1", armed)
	}
	sim.Advance(40 * time.Millisecond) // 90 ms
	if _, err := fresh.Wait(ctx); err != nil {
		t.Fatalf("fresh entry at its due time: %v", err)
	}
	if got := l.CommittedTail().Seq; got != 1 {
		t.Fatalf("committed = %d, want 1", got)
	}
}

func TestSealFaultpointsDeferAndRetry(t *testing.T) {
	faults := faultpoint.New(1)
	l := segTestLog(t, Config{SegmentEntries: 2, Faults: faults})
	// First seal attempt dies before the footer write; the segment stays
	// unsealed until a later commit retries.
	faults.Arm(faultpoint.SiteLogSealPre, faultpoint.Error, 0)
	after := ZeroID
	after = appendData(t, l, after, "a")
	after = appendData(t, l, after, "b")
	st := l.SegmentStats()
	if st.SealsDeferred != 1 || st.Sealed != 0 {
		t.Fatalf("after deferred seal: deferred=%d sealed=%d, want 1/0", st.SealsDeferred, st.Sealed)
	}
	// Untrimmable while unsealed.
	if n := l.Trim(after); n != 0 {
		t.Fatalf("trim of unsealed segment dropped %d", n)
	}
	// The next commit retries the seal.
	after = appendData(t, l, after, "c")
	appendData(t, l, after, "d")
	if st := l.SegmentStats(); st.Sealed != 2 {
		t.Fatalf("sealed after retry = %d, want 2", st.Sealed)
	}
	if got := faults.Hits(faultpoint.SiteLogSealPre); got < 3 {
		t.Fatalf("seal.pre hits = %d, want >= 3", got)
	}
	if got := faults.Hits(faultpoint.SiteLogSealPost); got != 2 {
		t.Fatalf("seal.post hits = %d, want 2", got)
	}
}

func TestTrimFaultpointDefers(t *testing.T) {
	faults := faultpoint.New(1)
	l := segTestLog(t, Config{SegmentEntries: 2, Faults: faults})
	after := ZeroID
	for i := 0; i < 4; i++ {
		after = appendData(t, l, after, "x")
	}
	faults.Arm(faultpoint.SiteLogTrimPre, faultpoint.Error, 0)
	if n := l.Trim(after); n != 0 {
		t.Fatalf("faulted trim dropped %d segments", n)
	}
	if st := l.SegmentStats(); st.TrimsDeferred != 1 {
		t.Fatalf("TrimsDeferred = %d, want 1", st.TrimsDeferred)
	}
	// Retry succeeds and fires trim.post (the deferred attempt aborted
	// before reaching it).
	if n := l.Trim(after); n != 2 {
		t.Fatalf("retried trim dropped %d segments, want 2", n)
	}
	if got := faults.Hits(faultpoint.SiteLogTrimPost); got != 1 {
		t.Fatalf("trim.post hits = %d, want 1", got)
	}
}

func TestCorruptSealedFooterCaughtOnRecover(t *testing.T) {
	faults := faultpoint.New(1)
	l := segTestLog(t, Config{SegmentEntries: 2, Faults: faults})
	faults.Arm(faultpoint.SiteLogSealPre, faultpoint.Corrupt, 0)
	after := ZeroID
	for i := 0; i < 4; i++ {
		after = appendData(t, l, after, "x")
	}
	// The bad footer is latent until the restart verification pass.
	if q, _ := l.RecoverChain(); q != 1 {
		t.Fatalf("RecoverChain quarantined %d segments, want 1 (corrupt footer)", q)
	}
}

func TestAZSegmentResync(t *testing.T) {
	cfg := Config{SegmentEntries: 4, Clock: clock.NewReal(), Faults: faultpoint.New(1)}
	svc := NewService(cfg)
	l, err := svc.CreateLog("s1")
	if err != nil {
		t.Fatal(err)
	}
	after := ZeroID
	for i := 0; i < 8; i++ { // two seals, all zones up
		after = appendData(t, l, after, "p")
	}
	setDown(svc, 2, true)
	for i := 0; i < 8; i++ { // two seals missed by az-3
		after = appendData(t, l, after, "p")
	}
	if held, missing, _ := svc.azs[2].Segments(); held != 2 || missing != 2 {
		t.Fatalf("down zone: held=%d missing=%d, want 2/2", held, missing)
	}
	if held, missing, _ := svc.azs[0].Segments(); held != 4 || missing != 0 {
		t.Fatalf("up zone: held=%d missing=%d, want 4/0", held, missing)
	}
	setDown(svc, 2, false)
	// A healed zone catches up by whole segments on the next seal…
	for i := 0; i < 4; i++ {
		after = appendData(t, l, after, "p")
	}
	held, missing, resynced := svc.azs[2].Segments()
	if held != 5 || missing != 0 || resynced != 2 {
		t.Fatalf("healed zone: held=%d missing=%d resynced=%d, want 5/0/2", held, missing, resynced)
	}
	// …or eagerly via ResyncSegments.
	setDown(svc, 1, true)
	for i := 0; i < 4; i++ {
		after = appendData(t, l, after, "p")
	}
	setDown(svc, 1, false)
	if n := svc.azs[1].ResyncSegments(); n != 1 {
		t.Fatalf("eager resync copied %d segments, want 1", n)
	}
	if _, missing, _ := svc.azs[1].Segments(); missing != 0 {
		t.Fatalf("missing after eager resync = %d", missing)
	}
}
