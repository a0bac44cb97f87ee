package snapshot

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"testing"
	"time"

	"memorydb/internal/resp"
	"memorydb/internal/s3"
	"memorydb/internal/txlog"
)

// sustainedRate is the writer's pace in log entries per second, one SET
// each. At the builder's default cadence (a delta every 512 entries, a
// full every eighth emit) that is a full about every 0.2 s.
const sustainedRate = 20_000

// BenchmarkBuilderUnderSustainedWrites runs the builder's pass loop at its
// 25 ms cadence beside one writer that appends single-SET entries at
// sustainedRate over a keyspace of passKeys, then of four times as many,
// string keys; b.N is the number of entries written, so -benchtime
// 300000x is 15 s of writes. It reports what the builder pays to judge
// each full (a restore rehearsal of the whole keyspace on the pass after
// it):
//   - rehearsals/s, and the passes' p50 and max in ms;
//   - lag-mean and lag-max, the entries a pass finds not yet replayed;
//   - cpu-µs/entry, B/entry and allocs/entry over the whole process, the
//     writer's share included;
//   - peak-heap-MB, the largest heap object bytes sampled every
//     millisecond (runtime/metrics), the log and the writer's garbage
//     included: what the builder's keyspace copies cost at their peak.
//
// Each verified full prunes the versions below it, so the in-memory store
// stays a chain or two in size however long it runs.
func BenchmarkBuilderUnderSustainedWrites(b *testing.B) {
	for _, keys := range []int{passKeys, 4 * passKeys} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) { builderUnderSustainedWrites(b, keys) })
	}
}

func builderUnderSustainedWrites(b *testing.B, keys int) {
	log := stringLog(b, keys)
	mgr := NewManager(s3.New(), "snaps")
	bld := &Builder{Manager: mgr, Log: log, ShardID: "s1", EngineVersion: 2}
	ctx := context.Background()
	if _, err := bld.Full(ctx); err != nil {
		b.Fatal(err)
	}
	if err := bld.Tick(ctx); err != nil {
		b.Fatal(err)
	}
	before := bld.Stats().Rehearsals

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime(b)
	stopSampling := make(chan struct{})
	peak := peakHeap(stopSampling)
	b.ResetTimer()
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- writeAtRate(ctx, log, b.N, keys, start) }()
	var lags []uint64
	var passes []time.Duration
	for writing := true; writing; {
		select {
		case err := <-done:
			if err != nil {
				b.Fatal(err)
			}
			writing = false
		case <-time.After(passInterval):
		}
		lags = append(lags, log.CommittedTail().Seq-bld.Stats().Pos.Seq)
		t0 := time.Now()
		if err := bld.Tick(ctx); err != nil {
			b.Fatal(err)
		}
		passes = append(passes, time.Since(t0))
	}
	elapsed := time.Since(start)
	b.StopTimer()
	close(stopSampling)
	cpu := cpuTime(b) - cpu0
	runtime.ReadMemStats(&ms1)

	if got := alarms(mgr.Flight); len(got) != 0 {
		b.Fatalf("alarms raised: %q", got)
	}
	slices.Sort(passes)
	var lagSum, lagMax uint64
	for _, l := range lags {
		lagSum += l
		lagMax = max(lagMax, l)
	}
	n := float64(b.N)
	b.ReportMetric(float64(bld.Stats().Rehearsals-before)/elapsed.Seconds(), "rehearsals/s")
	b.ReportMetric(float64(passes[len(passes)/2].Microseconds())/1e3, "pass-p50-ms")
	b.ReportMetric(float64(passes[len(passes)-1].Microseconds())/1e3, "pass-max-ms")
	b.ReportMetric(float64(lagSum)/float64(len(lags)), "lag-mean")
	b.ReportMetric(float64(lagMax), "lag-max")
	b.ReportMetric(float64(cpu.Microseconds())/n, "cpu-µs/entry")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/n, "B/entry")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/n, "allocs/entry")
	b.ReportMetric(float64(<-peak)/(1<<20), "peak-heap-MB")
}

// peakHeap samples the heap's object bytes every millisecond until stop
// is closed, then sends the largest sample.
func peakHeap(stop <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// writeAtRate appends n single-SET entries over keys string keys to log
// at sustainedRate, catching up in bursts when the scheduler delays it.
func writeAtRate(ctx context.Context, log *txlog.Log, n, keys int, start time.Time) error {
	value := bytes.Repeat([]byte("w"), 100)
	rng := rand.New(rand.NewPCG(1, 2))
	tail := log.CommittedTail()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for i := 0; i < n; {
		<-tick.C
		for due := int(time.Since(start).Seconds() * sustainedRate); i < n && i < due; i++ {
			payload := resp.AppendCommand(nil, []byte("SET"), fmt.Appendf(nil, "key:%08d", rng.IntN(keys)), value)
			var err error
			if tail, err = log.Append(ctx, tail, txlog.Entry{Type: txlog.EntryData, Records: 1, Payload: payload}); err != nil {
				return err
			}
		}
	}
	return nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
