package bench

import (
	"sync/atomic"
	"time"

	"memorydb/internal/obs"
)

// Recorder accumulates latency samples from many client goroutines into a
// lock-free log-linear histogram (internal/obs). Unlike the old
// sort-all-samples design, memory stays constant regardless of run length
// and Record never takes a lock, so the recorder itself cannot become the
// bottleneck in saturation benchmarks.
type Recorder struct {
	hist obs.Histogram
	errs atomic.Int64
}

// Record adds one sample.
func (r *Recorder) Record(d time.Duration) {
	r.hist.Observe(d)
}

// RecordErr counts a failed operation.
func (r *Recorder) RecordErr() {
	r.errs.Add(1)
}

// Summary holds the percentile digest of a run. Percentiles come from the
// log-linear histogram (≤6.25% bucket error, never under-reported); P100
// is the exact maximum.
type Summary struct {
	Count      int
	Errors     int
	Throughput float64 // ops/sec over the measured window
	Avg        time.Duration
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
	P999       time.Duration
	P100       time.Duration
}

// Summarize computes the digest over a window of elapsed wall time.
func (r *Recorder) Summarize(elapsed time.Duration) Summary {
	n := int(r.hist.Count())
	s := Summary{Count: n, Errors: int(r.errs.Load())}
	if elapsed > 0 {
		s.Throughput = float64(n) / elapsed.Seconds()
	}
	if n == 0 {
		return s
	}
	q := r.hist.Quantiles()
	s.Avg = r.hist.Mean()
	s.P50 = q.P50
	s.P95 = q.P95
	s.P99 = q.P99
	s.P999 = q.P999
	s.P100 = q.Max
	return s
}
