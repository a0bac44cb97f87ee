package bench

import (
	"context"
	"testing"
	"time"
)

func TestCapacityShape(t *testing.T) {
	// The model must encode the paper's orderings at every size.
	for _, it := range R7gSweep {
		rRead := Capacity(SystemRedis, OpRead, it)
		mRead := Capacity(SystemMemoryDB, OpRead, it)
		rWrite := Capacity(SystemRedis, OpWrite, it)
		mWrite := Capacity(SystemMemoryDB, OpWrite, it)
		if mRead < rRead {
			t.Errorf("%s: MemoryDB read capacity below Redis", it.Name)
		}
		if rWrite < mWrite {
			t.Errorf("%s: Redis write capacity below MemoryDB", it.Name)
		}
	}
	// Plateaus: 16xlarge ratios follow §6.1.2 (500/330 and 300/185).
	big := R7g16xlarge
	readRatio := Capacity(SystemMemoryDB, OpRead, big) / Capacity(SystemRedis, OpRead, big)
	if readRatio < 1.3 || readRatio > 1.7 {
		t.Errorf("read plateau ratio = %.2f, want ~1.5", readRatio)
	}
	writeRatio := Capacity(SystemRedis, OpWrite, big) / Capacity(SystemMemoryDB, OpWrite, big)
	if writeRatio < 1.4 || writeRatio > 1.8 {
		t.Errorf("write plateau ratio = %.2f, want ~1.6", writeRatio)
	}
	// Small instances are core-bound and comparable.
	small := R7gSweep[0]
	if r, m := Capacity(SystemRedis, OpRead, small), Capacity(SystemMemoryDB, OpRead, small); m/r > 1.25 {
		t.Errorf("r7g.large read capacities should be comparable: %f vs %f", r, m)
	}
}

func TestPacerEnforcesCapacity(t *testing.T) {
	var p Pacer
	cost := CostFor(100000) // 10µs per op
	now := time.Now()
	var lastWait time.Duration
	for i := 0; i < 1000; i++ {
		lastWait = p.Reserve(now, cost) // same instant: queue builds
	}
	// 1000 ops × 10µs = 10ms of service; the last waits ~10ms.
	if lastWait < 9*time.Millisecond || lastWait > 11*time.Millisecond {
		t.Fatalf("wait after 1000 instant arrivals = %v, want ~10ms", lastWait)
	}
}

func TestPacerIdleResets(t *testing.T) {
	var p Pacer
	cost := CostFor(1000)
	p.Reserve(time.Now(), cost)
	// After a long idle gap the queue is empty again.
	w := p.Reserve(time.Now().Add(time.Hour), cost)
	if w > 2*cost {
		t.Fatalf("idle pacer still queued: %v", w)
	}
}

func TestRecorderPercentiles(t *testing.T) {
	r := &Recorder{}
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	r.RecordErr()
	s := r.Summarize(time.Second)
	if s.Count != 100 || s.Errors != 1 {
		t.Fatalf("count/errors = %d/%d", s.Count, s.Errors)
	}
	if s.Throughput != 100 {
		t.Fatalf("throughput = %v", s.Throughput)
	}
	// Percentiles now come from the log-linear histogram: never below the
	// exact value, at most one bucket width (6.25%) above it.
	if s.P50 < 50*time.Millisecond || s.P50 > 54*time.Millisecond {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.P99 < 99*time.Millisecond || s.P99 > 107*time.Millisecond {
		t.Fatalf("p99 = %v", s.P99)
	}
	if s.P95 < 95*time.Millisecond || s.P95 > 102*time.Millisecond {
		t.Fatalf("p95 = %v", s.P95)
	}
	if s.P999 < s.P99 || s.P999 > s.P100 {
		t.Fatalf("p999 = %v outside [p99=%v, p100=%v]", s.P999, s.P99, s.P100)
	}
	if s.P100 != 100*time.Millisecond {
		t.Fatalf("p100 = %v", s.P100)
	}
}

func TestRecorderEmpty(t *testing.T) {
	r := &Recorder{}
	s := r.Summarize(time.Second)
	if s.Count != 0 || s.P50 != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestTargetEndToEnd(t *testing.T) {
	// One tiny closed-loop run per system: write durability must hold on
	// the MemoryDB target (commit latency visible in write latency).
	ctx := context.Background()
	for _, sys := range []System{SystemRedis, SystemMemoryDB} {
		tg, err := NewTarget(sys, R7gSweep[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := tg.Prefill(ctx, 100, 100); err != nil {
			t.Fatal(err)
		}
		sum := RunClosedLoop(ctx, tg, WorkloadMixed8020, 8, 50*time.Millisecond)
		tg.Close()
		if sum.Count == 0 || sum.Errors > 0 {
			t.Fatalf("%v: %+v", sys, sum)
		}
	}
}

func TestMemoryDBWriteLatencyReflectsCommit(t *testing.T) {
	ctx := context.Background()
	tg, err := NewTarget(SystemMemoryDB, R7g16xlarge)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.Close()
	if err := tg.Prefill(ctx, 10, 100); err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	const n = 20
	for i := 0; i < n; i++ {
		d, err := tg.Op(ctx, OpWrite, i, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		total += d
	}
	if avg := total / n; avg < 2*time.Millisecond {
		t.Fatalf("avg write latency %v — multi-AZ commit not applied", avg)
	}
}
