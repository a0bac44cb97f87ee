package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memorydb/internal/memsim"
)

// ShardedArmShards is the execution-shard count of the benchmarks'
// sharded MemoryDB arm: GOMAXPROCS, floored at 8 so the ablation stays
// meaningful on small CI runners (where GOMAXPROCS would collapse the
// sharded arm back to the single-workloop configuration), capped at the
// keyspace's 64 parts.
func ShardedArmShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 64 {
		n = 64
	}
	return n
}

// Options scale the experiments so they fit the machine at hand. The
// paper uses 10 load generators × 100 connections and 1M pre-filled
// keys; the defaults here are scaled down but preserve saturation (the
// client count comfortably exceeds capacity × latency).
type Options struct {
	Clients  int
	Duration time.Duration
	Prefill  int
}

// Figure4 regenerates Figure 4: maximum throughput per instance type for
// read-only (a) and write-only (b) workloads — Redis, single-workloop
// MemoryDB, and keyspace-sharded MemoryDB (Shards=ShardedArmShards).
func Figure4(ctx context.Context, w Workload, opts Options, out io.Writer) ([]Row, error) {
	var rows []Row
	arms := []struct {
		key    string
		sys    System
		shards int
	}{
		{"redis_ops", SystemRedis, 1},
		{"memorydb_ops", SystemMemoryDB, 1},
		{"memorydb_sharded_ops", SystemMemoryDB, ShardedArmShards()},
	}
	for _, it := range R7gSweep {
		row := Row{Label: it.Name, Values: map[string]float64{},
			Order: []string{"redis_ops", "memorydb_ops", "memorydb_sharded_ops"}}
		for _, arm := range arms {
			t, err := NewTarget(arm.sys, it, TargetOpts{Shards: arm.shards})
			if err != nil {
				return nil, err
			}
			if err := t.Prefill(ctx, opts.Prefill, w.ValueBytes); err != nil {
				t.Close()
				return nil, err
			}
			sum := RunClosedLoop(ctx, t, w, opts.Clients, opts.Duration)
			t.Close()
			row.Values[arm.key] = sum.Throughput
		}
		rows = append(rows, row)
		if out != nil {
			fmt.Fprintln(out, row.Format())
		}
	}
	return rows, nil
}

// Figure5 regenerates Figure 5: latency vs offered throughput on
// r7g.16xlarge for the given workload, for both systems. Offered rates
// sweep 10%..95% of the slower system's capacity so both sides see the
// same absolute load points, like the paper's shared x-axis.
func Figure5(ctx context.Context, w Workload, opts Options, out io.Writer) ([]Row, error) {
	it := R7g16xlarge
	kind := OpWrite
	if w.ReadRatio == 1.0 {
		kind = OpRead
	}
	lo := Capacity(SystemMemoryDB, kind, it)
	if c := Capacity(SystemRedis, kind, it); c < lo {
		lo = c
	}
	fractions := []float64{0.1, 0.3, 0.5, 0.7, 0.85, 0.9}
	var rows []Row
	for _, sys := range []System{SystemRedis, SystemMemoryDB} {
		t, err := NewTarget(sys, it, TargetOpts{})
		if err != nil {
			return nil, err
		}
		if err := t.Prefill(ctx, opts.Prefill, w.ValueBytes); err != nil {
			t.Close()
			return nil, err
		}
		for _, f := range fractions {
			offered := lo * f
			sum := RunOffered(ctx, t, w, offered, opts.Clients, opts.Duration)
			row := Row{
				Label: fmt.Sprintf("%s@%.0fK", sys, offered/1000),
				Values: map[string]float64{
					"offered_ops": offered,
					"p50_ms":      float64(sum.P50) / 1e6,
					"p95_ms":      float64(sum.P95) / 1e6,
					"p99_ms":      float64(sum.P99) / 1e6,
					"p999_ms":     float64(sum.P999) / 1e6,
				},
				Order: []string{"offered_ops", "p50_ms", "p95_ms", "p99_ms", "p999_ms"},
			}
			rows = append(rows, row)
			if out != nil {
				fmt.Fprintln(out, row.Format())
			}
		}
		t.Close()
	}
	return rows, nil
}

// Figure6 regenerates Figure 6: client-perceived latency and throughput
// while Redis BGSave runs in a memory-constrained setup (2 vCPU, 16 GB
// RAM, 12 GB maxmemory, 20M × 500 B keys, 100 GET + 20 SET clients).
func Figure6(out io.Writer) []memsim.Sample {
	cfg := memsim.DefaultRedisBGSave()
	samples := memsim.SimulateBGSave(cfg, 10, 160)
	if out != nil {
		fmt.Fprintln(out, "t_sec  phase    ops/s    avg_ms  p100_ms  mem_gb  swap_pct")
		for _, s := range samples {
			fmt.Fprintf(out, "%5.0f  %-7s %8.0f  %6.2f  %7.1f  %6.2f  %7.2f\n",
				s.TimeSec, s.Phase, s.ThroughputOps, s.AvgLatencyMs, s.P100LatencyMs, s.MemUsedGB, s.SwapPct)
		}
	}
	return samples
}

// Figure7 regenerates Figure 7: the same client workload against
// MemoryDB while an off-box cluster snapshots in parallel — flat
// throughput and latency throughout.
func Figure7(out io.Writer) []memsim.Sample {
	cfg := memsim.DefaultRedisBGSave()
	samples := memsim.SimulateOffbox(cfg, 30, 60, 120)
	if out != nil {
		fmt.Fprintln(out, "t_sec  phase             ops/s    avg_ms  p100_ms")
		for _, s := range samples {
			fmt.Fprintf(out, "%5.0f  %-16s %8.0f  %6.2f  %7.1f\n",
				s.TimeSec, s.Phase, s.ThroughputOps, s.AvgLatencyMs, s.P100LatencyMs)
		}
	}
	return samples
}

// FigureForkless contrasts the two checkpointers across memory pressure:
// for each dataset size on the paper's 16 GB host, the fork/COW BGSave
// arm (Figure 6 dynamics) against the forkless log-tailing builder. The
// fork arm's tail latency and RSS blow up once COW duplication spills
// into swap; the forkless arm's write p100 and resident footprint stay
// flat at every size because the engine never forks — snapshots are
// built from the log, off the critical path.
func FigureForkless(out io.Writer) []Row {
	var rows []Row
	if out != nil {
		fmt.Fprintln(out, "dataset_gb   fork: p100_ms / min_ops / peak_mem_gb / swap_pct   forkless: p100_ms / min_ops / peak_mem_gb")
	}
	for _, gb := range []float64{6, 8, 10, 12, 14} {
		cfg := memsim.DefaultRedisBGSave()
		cfg.DatasetGB = gb
		fork := memsim.SimulateBGSave(cfg, 10, 160)
		forkless := memsim.SimulateForkless(cfg, 10, 60, 160)
		row := Row{
			Label: fmt.Sprintf("%gGB", gb),
			Values: map[string]float64{
				"dataset_gb":            gb,
				"fork_peak_p100_ms":     memsim.MaxP100(fork),
				"fork_min_ops":          memsim.MinThroughput(fork),
				"fork_peak_mem_gb":      memsim.MaxMemUsedGB(fork),
				"fork_peak_swap_pct":    memsim.PeakSwapPct(fork),
				"forkless_peak_p100_ms": memsim.MaxP100(forkless),
				"forkless_min_ops":      memsim.MinThroughput(forkless),
				"forkless_peak_mem_gb":  memsim.MaxMemUsedGB(forkless),
			},
			Order: []string{"dataset_gb", "fork_peak_p100_ms", "fork_min_ops", "fork_peak_mem_gb",
				"fork_peak_swap_pct", "forkless_peak_p100_ms", "forkless_min_ops", "forkless_peak_mem_gb"},
		}
		rows = append(rows, row)
		if out != nil {
			fmt.Fprintln(out, row.Format())
		}
	}
	return rows
}

// FigureGroupCommit compares write-only throughput with group commit
// enabled against per-mutation appends (MaxBatchRecords=1), reporting the
// records-per-entry amortization the transaction log observed. This is the
// ablation for the batched append path: with hundreds of closed-loop
// writers, throughput is bounded by quorum round-trips, so coalescing K
// records per entry recovers most of the K× gap to engine capacity.
func FigureGroupCommit(ctx context.Context, opts Options, out io.Writer) ([]Row, error) {
	var rows []Row
	for _, mode := range []struct {
		label  string
		batch  int
		shards int
	}{
		{"batch=1", 1, 1},
		{"batch=default", 0, 1},
		{fmt.Sprintf("batch=default,shards=%d", ShardedArmShards()), 0, ShardedArmShards()},
	} {
		t, err := NewTarget(SystemMemoryDB, R7g16xlarge, TargetOpts{Batch: mode.batch, Shards: mode.shards})
		if err != nil {
			return nil, err
		}
		if err := t.Prefill(ctx, opts.Prefill, WorkloadWriteOnly.ValueBytes); err != nil {
			t.Close()
			return nil, err
		}
		ps := RunPipelined(ctx, t, WorkloadWriteOnly, opts.Clients, opts.Duration)
		t.Close()
		row := Row{
			Label: mode.label,
			Values: map[string]float64{
				"ops":               ps.Throughput,
				"p50_ms":            float64(ps.P50) / 1e6,
				"p95_ms":            float64(ps.P95) / 1e6,
				"p99_ms":            float64(ps.P99) / 1e6,
				"p999_ms":           float64(ps.P999) / 1e6,
				"records_per_entry": ps.RecordsPerEntry,
			},
			Order: []string{"ops", "p50_ms", "p95_ms", "p99_ms", "p999_ms", "records_per_entry"},
		}
		rows = append(rows, row)
		if out != nil {
			fmt.Fprintln(out, row.Format())
		}
	}
	return rows, nil
}

// WriteBandwidth measures the §6.1.2.1 claim that a single shard reaches
// ~100 MB/s of write bandwidth with pipelining and large values: batched
// (pipelined) SETs of valueBytes each are driven through the shard and
// the achieved payload bandwidth is returned in MB/s.
func WriteBandwidth(ctx context.Context, valueBytes, pipeline int, duration time.Duration) (float64, error) {
	t, err := NewTarget(SystemMemoryDB, R7g16xlarge, TargetOpts{})
	if err != nil {
		return 0, err
	}
	defer t.Close()
	val := make([]byte, valueBytes)
	stop := time.Now().Add(duration)
	var bytesWritten atomic.Int64
	// Several pipelining connections, as the paper's throughput-oriented
	// configuration implies: appends from concurrent batches pipeline in
	// the log, so commit latency stops bounding bandwidth.
	const conns = 8
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for cnum := 0; cnum < conns; cnum++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			i := base * 1_000_000
			for time.Now().Before(stop) {
				var cmds [][][]byte
				for j := 0; j < pipeline; j++ {
					cmds = append(cmds, [][]byte{[]byte("SET"), benchKey(i), val})
					i++
				}
				if _, err := t.node.DoBatch(ctx, cmds); err != nil {
					errs <- err
					return
				}
				bytesWritten.Add(int64(pipeline * valueBytes))
			}
		}(cnum)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	return float64(bytesWritten.Load()) / duration.Seconds() / (1 << 20), nil
}
