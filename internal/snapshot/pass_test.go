package snapshot

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"memorydb/internal/resp"
	"memorydb/internal/s3"
	"memorydb/internal/txlog"
)

// passKeys is the keyspace the builder benchmarks replay: 50 000 string
// keys of 12 bytes with 100-byte values, as the benchmark's load writes.
const passKeys = 50_000

// stringLog returns a log holding n string keys, written 500 SETs to an
// entry the way group commit batches a bulk load.
func stringLog(tb testing.TB, n int) *txlog.Log {
	tb.Helper()
	log, err := txlog.NewService(txlog.Config{}).CreateLog("s1")
	if err != nil {
		tb.Fatal(err)
	}
	value := bytes.Repeat([]byte("v"), 100)
	tail := txlog.ZeroID
	for first := 0; first < n; first += 500 {
		var payload []byte
		last := min(first+500, n)
		for k := first; k < last; k++ {
			payload = resp.AppendCommand(payload, []byte("SET"), fmt.Appendf(nil, "key:%08d", k), value)
		}
		entry := txlog.Entry{Type: txlog.EntryData, Records: uint32(last - first), Payload: payload}
		if tail, err = log.Append(context.Background(), tail, entry); err != nil {
			tb.Fatal(err)
		}
	}
	return log
}

// fullPass replays log into a fresh builder and emits one full snapshot,
// returning the manager that holds it.
func fullPass(tb testing.TB, log *txlog.Log) *Manager {
	tb.Helper()
	mgr := NewManager(s3.New(), "snaps")
	b := &Builder{Manager: mgr, Log: log, ShardID: "s1", EngineVersion: 2, DeltaInterval: 1}
	if err := b.Tick(context.Background()); err != nil {
		tb.Fatal(err)
	}
	if got := mgr.Health().Compactions.Load(); got != 1 {
		tb.Fatalf("the pass emitted %d full snapshots, want 1", got)
	}
	return mgr
}

// perKey reports a loop's cost per replayed key.
func perKey(b *testing.B, run func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < b.N; i++ {
		run()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(b.N * passKeys)
	b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/key")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/key")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/key")
}

// BenchmarkBuilderFullPass is one bootstrap pass of the builder: drain a
// log of string keys into its private copy, then encode and upload a full
// snapshot.
func BenchmarkBuilderFullPass(b *testing.B) {
	log := stringLog(b, passKeys)
	b.ResetTimer()
	perKey(b, func() { fullPass(b, log) })
}

// BenchmarkRestore resolves and restores the full snapshot of the same
// keyspace, as a bootstrapping replica does.
func BenchmarkRestore(b *testing.B) {
	mgr := fullPass(b, stringLog(b, passKeys))
	b.ResetTimer()
	perKey(b, func() {
		if chain, ok, err := mgr.Resolve("s1", false); err != nil || !ok || chain.DB.Len() != passKeys {
			b.Fatalf("restore: ok=%v, err=%v", ok, err)
		}
	})
}

// TestFullEmitAllocatesTheSnapshotOnce pins what a compaction costs in
// memory: the full emit allocates the one file it uploads, at its exact
// size, and next to nothing else, since S3 keeps that buffer.
func TestFullEmitAllocatesTheSnapshotOnce(t *testing.T) {
	const keys = 20_000
	mgr := NewManager(s3.New(), "snaps")
	b := &Builder{Manager: mgr, Log: stringLog(t, keys), ShardID: "s1", EngineVersion: 2, DeltaInterval: 1 << 40}
	ctx := context.Background()
	if err := b.Tick(ctx); err != nil { // catches up; no emit is due
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	meta, err := b.Full(ctx)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	file, err := mgr.store.Get(mgr.key("s1", meta.LogPos))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(file))
	t.Logf("a full emit of %d string keys allocated %.2fx its %d-byte snapshot", keys, ratio, len(file))
	if ratio > 1.1 {
		t.Fatalf("a full emit allocated %.2fx the snapshot's bytes, want <= 1.1", ratio)
	}
}

// TestRestoreAllocationsPerKey pins a restore's allocations: a string key
// costs the one buffer the keyspace stores it in. (A key this short is
// converted to a string on the stack; the store copies it in.)
func TestRestoreAllocationsPerKey(t *testing.T) {
	const keys = 20_000
	mgr := fullPass(t, stringLog(t, keys))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	chain, ok, err := mgr.Resolve("s1", false)
	runtime.ReadMemStats(&after)
	if err != nil || !ok || chain.DB.Len() != keys {
		t.Fatalf("restore: ok=%v, err=%v", ok, err)
	}
	per := float64(after.Mallocs-before.Mallocs) / keys
	t.Logf("restore: %.2f allocations per string key", per)
	if per > 1.1 {
		t.Fatalf("restore allocated %.2f objects per string key, want <= 1.1", per)
	}
}
