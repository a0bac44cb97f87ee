package bench

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Workload describes the client mix of §6.1.1: Read Only, Write Only, or
// 80/20 Read-Write.
type Workload struct {
	Name       string
	ReadRatio  float64 // fraction of GETs
	ValueBytes int
	Keys       int
}

// The three paper workloads (value size 100 B).
var (
	WorkloadReadOnly  = Workload{Name: "read-only", ReadRatio: 1.0, ValueBytes: 100, Keys: 10000}
	WorkloadWriteOnly = Workload{Name: "write-only", ReadRatio: 0.0, ValueBytes: 100, Keys: 10000}
	WorkloadMixed8020 = Workload{Name: "mixed-80/20", ReadRatio: 0.8, ValueBytes: 100, Keys: 10000}
)

// RunClosedLoop drives clients back-to-back requests (no pipelining,
// like redis-benchmark) for the duration and returns the digest. This is
// the Figure 4 "maximum throughput" measurement.
func RunClosedLoop(ctx context.Context, t *Target, w Workload, clients int, duration time.Duration) Summary {
	rec := &Recorder{}
	val := make([]byte, w.ValueBytes)
	var wg sync.WaitGroup
	stop := time.Now().Add(duration)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(stop) {
				kind := OpWrite
				if rng.Float64() < w.ReadRatio {
					kind = OpRead
				}
				d, err := t.Op(ctx, kind, rng.Intn(w.Keys), val)
				if err != nil {
					rec.RecordErr()
					continue
				}
				rec.Record(d)
			}
		}(int64(c) + 1)
	}
	wg.Wait()
	return rec.Summarize(duration)
}

// PipelineSummary extends Summary with the transaction-log batching
// metrics of a pipelined write run.
type PipelineSummary struct {
	Summary
	// Entries is the number of data entries (quorum round-trips) the run
	// appended; Records is the number of mutation records they carried.
	Entries int64
	Records int64
	// RecordsPerEntry is Records/Entries — the group-commit amortization
	// factor (1.0 means every mutation paid its own quorum round-trip).
	RecordsPerEntry float64
}

// RunPipelined drives a pipelined write workload: clients issue mutations
// back-to-back and concurrently, so the primary's workloop keeps executing
// while quorum appends are in flight and group commit can coalesce the
// effects. The returned summary includes the observed records-per-entry
// from the transaction log's own counters.
func RunPipelined(ctx context.Context, t *Target, w Workload, clients int, duration time.Duration) PipelineSummary {
	before := t.log.Stats()
	sum := RunClosedLoop(ctx, t, w, clients, duration)
	after := t.log.Stats()
	ps := PipelineSummary{Summary: sum, RecordsPerEntry: 1,
		Entries: after.DataAppends - before.DataAppends, Records: after.Records - before.Records}
	if ps.Entries > 0 {
		ps.RecordsPerEntry = float64(ps.Records) / float64(ps.Entries)
	}
	return ps
}

// RunOffered drives an open-loop offered rate (ops/sec) split across
// clients, recording latencies — the Figure 5 sweep. Clients fall behind
// rather than queue unboundedly when the system saturates, mirroring a
// real load generator.
func RunOffered(ctx context.Context, t *Target, w Workload, offered float64, clients int, duration time.Duration) Summary {
	rec := &Recorder{}
	val := make([]byte, w.ValueBytes)
	perClient := offered / float64(clients)
	interval := time.Duration(float64(time.Second) / perClient)
	var wg sync.WaitGroup
	stop := time.Now().Add(duration)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			next := time.Now().Add(time.Duration(rng.Int63n(int64(interval))))
			for time.Now().Before(stop) {
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				next = next.Add(interval)
				kind := OpWrite
				if rng.Float64() < w.ReadRatio {
					kind = OpRead
				}
				d, err := t.Op(ctx, kind, rng.Intn(w.Keys), val)
				if err != nil {
					rec.RecordErr()
					continue
				}
				rec.Record(d)
				if time.Until(next) < -2*interval {
					// Saturated: shed the backlog instead of bursting a
					// deep catch-up train (which would inflate tails far
					// beyond what an open-loop generator produces).
					next = time.Now()
				}
			}
		}(int64(c) + 101)
	}
	wg.Wait()
	return rec.Summarize(duration)
}

// WriteBandwidth measures the §6.1.2.1 claim that a single shard reaches
// ~100 MB/s of write bandwidth with pipelining and large values: batched
// (pipelined) SETs of valueBytes each are driven through the shard and
// the achieved payload bandwidth is returned in MB/s.
func WriteBandwidth(ctx context.Context, valueBytes, pipeline int, duration time.Duration) (float64, error) {
	t, err := NewTarget(SystemMemoryDB, R7g16xlarge)
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
