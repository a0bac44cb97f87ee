// Package memorydb_bench holds the top-level benchmark harness and the
// only driver of the paper's modelled figures: one testing.B benchmark
// per table/figure of the evaluation (§6), plus ablation benches for the
// design choices DESIGN.md calls out. Regenerate EXPERIMENTS.md's tables
// with:
//
//	make bench
//
// Figure benches report throughput/latency via b.ReportMetric; absolute
// numbers are machine- and scale-dependent (see bench.CapacityScale), but
// the orderings and ratios match §6.
package memorydb_bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"memorydb/internal/bench"
	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/election"
	"memorydb/internal/engine"
	"memorydb/internal/memsim"
	"memorydb/internal/netsim"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/txlog"
)

// Each figure point pre-fills figurePrefill keys and then measures
// figureClients clients over one figureWindow per iteration. The paper
// uses 10 load generators × 100 connections and 1M keys; these are
// scaled down but keep the client count above capacity × latency, so
// the modelled instance stays saturated.
const (
	figureClients = 256
	figureWindow  = 150 * time.Millisecond
	figurePrefill = 2000
)

// figure5Loads are the offered loads of Figure 5, as fractions of the
// slower system's modelled capacity, so both systems see the same
// absolute load points like the paper's shared x-axis.
var figure5Loads = []float64{0.1, 0.3, 0.5, 0.7, 0.85, 0.9}

// runFigure4 sweeps R7gSweep with two arms per instance: Redis and
// MemoryDB.
func runFigure4(b *testing.B, w bench.Workload) {
	for _, it := range bench.R7gSweep {
		for _, sys := range []bench.System{bench.SystemRedis, bench.SystemMemoryDB} {
			b.Run(it.Name+"/"+sys.String(), func(b *testing.B) {
				ctx := context.Background()
				t, err := bench.NewTarget(sys, it)
				if err != nil {
					b.Fatal(err)
				}
				defer t.Close()
				if err := t.Prefill(ctx, figurePrefill, w.ValueBytes); err != nil {
					b.Fatal(err)
				}
				var total float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					total += bench.RunClosedLoop(ctx, t, w, figureClients, figureWindow).Throughput
				}
				b.ReportMetric(total/float64(b.N), "ops/s")
			})
		}
	}
}

// BenchmarkFigure4a reproduces Figure 4a: read-only maximum throughput
// per instance type.
func BenchmarkFigure4a(b *testing.B) { runFigure4(b, bench.WorkloadReadOnly) }

// BenchmarkFigure4b reproduces Figure 4b: write-only maximum throughput
// per instance type. MemoryDB commits every write to the multi-AZ log.
func BenchmarkFigure4b(b *testing.B) { runFigure4(b, bench.WorkloadWriteOnly) }

// runFigure5 sweeps figure5Loads for both systems on r7g.16xlarge.
func runFigure5(b *testing.B, w bench.Workload) {
	it := bench.R7g16xlarge
	kind := bench.OpWrite
	if w.ReadRatio == 1.0 {
		kind = bench.OpRead
	}
	lo := min(bench.Capacity(bench.SystemMemoryDB, kind, it), bench.Capacity(bench.SystemRedis, kind, it))
	for _, sys := range []bench.System{bench.SystemRedis, bench.SystemMemoryDB} {
		for _, frac := range figure5Loads {
			b.Run(fmt.Sprintf("%s/load%.0f%%", sys, frac*100), func(b *testing.B) {
				ctx := context.Background()
				t, err := bench.NewTarget(sys, it)
				if err != nil {
					b.Fatal(err)
				}
				defer t.Close()
				if err := t.Prefill(ctx, figurePrefill, w.ValueBytes); err != nil {
					b.Fatal(err)
				}
				var p50, p99 float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sum := bench.RunOffered(ctx, t, w, lo*frac, figureClients, figureWindow)
					p50 += float64(sum.P50) / 1e6
					p99 += float64(sum.P99) / 1e6
				}
				b.ReportMetric(lo*frac, "offered_ops/s")
				b.ReportMetric(p50/float64(b.N), "p50_ms")
				b.ReportMetric(p99/float64(b.N), "p99_ms")
			})
		}
	}
}

// BenchmarkFigure5a: read-only latency vs offered throughput (16xlarge).
func BenchmarkFigure5a(b *testing.B) { runFigure5(b, bench.WorkloadReadOnly) }

// BenchmarkFigure5b: write-only latency vs offered throughput. Redis
// stays sub-ms at the median; MemoryDB pays ~3 ms for multi-AZ commits.
func BenchmarkFigure5b(b *testing.B) { runFigure5(b, bench.WorkloadWriteOnly) }

// BenchmarkFigure5c: 80/20 mixed latency vs offered throughput.
func BenchmarkFigure5c(b *testing.B) { runFigure5(b, bench.WorkloadMixed8020) }

// reportSnapshotSeries reports the headline values of a Figure 6/7
// series: the fork step's p100 (0 when nothing forks), the deepest
// throughput, the worst p100 and the peak swap share of memory.
func reportSnapshotSeries(b *testing.B, samples []memsim.Sample) {
	var forkP100 float64
	for _, s := range samples {
		if s.Phase == "fork" {
			forkP100 = s.P100LatencyMs
		}
	}
	b.ReportMetric(forkP100, "fork_p100_ms")
	b.ReportMetric(memsim.MinThroughput(samples), "min_ops/s")
	b.ReportMetric(memsim.MaxP100(samples), "max_p100_ms")
	b.ReportMetric(memsim.PeakSwapPct(samples), "peak_swap_%")
}

// BenchmarkFigure6 regenerates the Redis BGSave memory-pressure series
// (the discrete simulation): a fork spike, then collapse once swap
// crosses the threshold.
func BenchmarkFigure6(b *testing.B) {
	var samples []memsim.Sample
	for i := 0; i < b.N; i++ {
		samples = memsim.SimulateBGSave(memsim.DefaultRedisBGSave(), 10, 160)
	}
	reportSnapshotSeries(b, samples)
}

// BenchmarkFigure7 regenerates the off-box snapshotting series (flat).
func BenchmarkFigure7(b *testing.B) {
	var samples []memsim.Sample
	for i := 0; i < b.N; i++ {
		samples = memsim.SimulateOffbox(memsim.DefaultRedisBGSave(), 30, 60, 120)
	}
	reportSnapshotSeries(b, samples)
}

// BenchmarkWriteBandwidth reproduces the §6.1.2.1 claim: a single shard
// sustains on the order of 100 MB/s of pipelined write bandwidth.
func BenchmarkWriteBandwidth(b *testing.B) {
	ctx := context.Background()
	var total float64
	for i := 0; i < b.N; i++ {
		mbps, err := bench.WriteBandwidth(ctx, 4096, 64, 300*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		total += mbps
	}
	b.ReportMetric(total/float64(b.N), "MB/s")
}

// BenchmarkPipelinedWrites measures group commit: write-only pipelined
// load against a MemoryDB node. records_per_entry is read from the
// transaction log's own counters — it must exceed 1 under this
// concurrency.
func BenchmarkPipelinedWrites(b *testing.B) {
	ctx := context.Background()
	t, err := bench.NewTarget(bench.SystemMemoryDB, bench.R7g16xlarge)
	if err != nil {
		b.Fatal(err)
	}
	defer t.Close()
	if err := t.Prefill(ctx, figurePrefill, bench.WorkloadWriteOnly.ValueBytes); err != nil {
		b.Fatal(err)
	}
	var tput, rpe float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := bench.RunPipelined(ctx, t, bench.WorkloadWriteOnly, figureClients, figureWindow)
		tput += ps.Throughput
		rpe += ps.RecordsPerEntry
	}
	b.ReportMetric(tput/float64(b.N), "ops/s")
	b.ReportMetric(rpe/float64(b.N), "records_per_entry")
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

func newBenchNode(b *testing.B, commit netsim.LatencyModel) *core.Node {
	b.Helper()
	svc := txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: commit})
	log, err := svc.CreateLog(fmt.Sprintf("ablate-%p", &svc))
	if err != nil {
		b.Fatal(err)
	}
	n, err := core.NewNode(core.Config{
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
	return n
}

// BenchmarkAblationQuorumLatency sweeps the multi-AZ commit latency and
// reports acknowledged-write latency — the direct cost of durability.
func BenchmarkAblationQuorumLatency(b *testing.B) {
	for _, commit := range []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond, 4 * time.Millisecond} {
		b.Run(fmt.Sprintf("commit=%v", commit), func(b *testing.B) {
			n := newBenchNode(b, netsim.Fixed(commit))
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := n.Do(ctx, [][]byte{[]byte("SET"), []byte("k"), []byte("v")}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSnapshotFreshness measures restore (resync) cost as a
// function of how much transaction log must be replayed past the latest
// snapshot — the §4.2.3 freshness trade-off.
func BenchmarkAblationSnapshotFreshness(b *testing.B) {
	for _, replay := range []int{0, 1000, 10000} {
		b.Run(fmt.Sprintf("replay=%d", replay), func(b *testing.B) {
			svc := txlog.NewService(txlog.Config{})
			log, _ := svc.CreateLog("fresh")
			mgr := snapshot.NewManager(s3.New(), "snaps")
			eng := engine.New(clock.NewReal())
			ctx := context.Background()
			after := txlog.ZeroID
			appendN := func(n int) {
				for i := 0; i < n; i++ {
					res := eng.Exec([][]byte{[]byte("SET"), []byte(fmt.Sprintf("k%d", i%500)), []byte("value-of-moderate-size")})
					id, err := log.Append(ctx, after, txlog.Entry{Type: txlog.EntryData, Payload: res.Effects})
					if err != nil {
						b.Fatal(err)
					}
					after = id
				}
			}
			appendN(500) // base state
			builder := &snapshot.Builder{Manager: mgr, Log: log, ShardID: "fresh", EngineVersion: 2}
			if _, err := builder.Full(ctx); err != nil {
				b.Fatal(err)
			}
			appendN(replay) // staleness
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				restored := engine.New(clock.NewReal())
				chain, ok, err := mgr.Resolve("fresh", false)
				if err != nil || !ok {
					b.Fatal(err)
				}
				restored.ResetDB(chain.DB)
				replay := txlog.NewReplayer(engine.Version, chain.Tip.LogChecksum)
				if _, err := replay.Range(log, chain.Tip.LogPos, log.CommittedTail(),
					func(e txlog.Entry) error { return restored.Apply(e.Payload) }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
