package snapshot

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
	"time"

	"memorydb/internal/resp"
	"memorydb/internal/s3"
	"memorydb/internal/store"
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
	if got := mgr.Health("s1").Compactions.Load(); got != 1 {
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
// keyspace, as a bootstrapping replica does; MB/s is of the snapshot file.
func BenchmarkRestore(b *testing.B) {
	mgr := fullPass(b, stringLog(b, passKeys))
	keys, err := mgr.store.List("snaps/s1/")
	if err != nil || len(keys) != 1 {
		b.Fatalf("snapshots %v, %v", keys, err)
	}
	file, err := mgr.store.Get(keys[0])
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(file)))
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
// costs the one buffer the keyspace stores it in (a key this short is
// converted to a string on the stack; the store copies it in), and each
// part one table array — two slices — sized from the snapshot's part
// index, never grown. What is left is a constant: the keyspace's 64
// expiry maps, the restore's bookkeeping and its decode goroutines. Growing the tables instead
// cost 1.05 allocations per key, 1 000 more than this at 20 000 keys.
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
	extra := int(after.Mallocs-before.Mallocs) - keys
	t.Logf("restore: %.4f allocations per string key, %d beyond one per key", float64(keys+extra)/keys, extra)
	if limit := 3*store.NumParts + 64 + 2*runtime.GOMAXPROCS(0); extra > limit {
		t.Fatalf("restore allocated %d objects beyond one per key, want <= %d: a table grew", extra, limit)
	}
}

// TestRestoreLeavesTheObjectUnchanged: S3 hands every reader the stored
// object itself, so a restore — its parallel decode, the layering of
// deltas on the base, and the rehearsal's drain that then writes into
// the restored keyspace — must never write into the bytes it read.
func TestRestoreLeavesTheObjectUnchanged(t *testing.T) {
	h := newShardHarness(t, 8)
	mgr := NewManager(s3.New(), "snaps")
	b := &Builder{Manager: mgr, Log: h.log, ShardID: "s1", EngineVersion: 1, DeltaInterval: 3, CompactEvery: 100}
	ctx := context.Background()
	for d := 0; d < 3; d++ {
		for i := 0; i < 50; i++ {
			h.do("SET", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d-%d", i, d))
		}
		h.do("HSET", "h", fmt.Sprintf("f%d", d), "v")
		if err := b.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := mgr.store.List("snaps/s1/")
	if err != nil || len(keys) != 3 {
		t.Fatalf("chain links %v, %v; want a full and two deltas", keys, err)
	}
	sums := map[string][32]byte{}
	for _, k := range keys {
		data, _ := mgr.store.Get(k)
		sums[k] = sha256.Sum256(data)
	}
	h.do("SET", "k0", "after the chain")
	// A restarted builder rebuilds from the chain, which it has not
	// judged: the rebuild is the rehearsal, and its drain writes into the
	// restored keyspace.
	restarted := &Builder{Manager: mgr, Log: h.log, ShardID: "s1", EngineVersion: 1, DeltaInterval: 1 << 40}
	if err := restarted.Tick(ctx); err != nil || restarted.Stats().Rehearsals != 1 {
		t.Fatalf("rehearsal of the chain: %d verdicts, %v", restarted.Stats().Rehearsals, err)
	}
	chain, ok, err := mgr.Resolve("s1", false)
	if err != nil || !ok || chain.Depth != 2 {
		t.Fatalf("restore: depth %d, ok=%v, err=%v", chain.Depth, ok, err)
	}
	chain.DB.Flush()
	for _, k := range keys {
		if data, _ := mgr.store.Get(k); sha256.Sum256(data) != sums[k] {
			t.Fatalf("the stored object %s changed under a restore", k)
		}
	}
}
