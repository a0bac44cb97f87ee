package main

import (
	"hash/crc64"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"memorydb/internal/core"
	"memorydb/internal/obs"
	"memorydb/internal/txlog"
)

// metricDef names one reported number. The two tables below are the
// harness's half of BENCHMARK.json; a test holds the two in agreement.
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd is what a user of the system sees, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"heap_after_load_mb", "MiB", "lower"},
}

// perLayer is one layer's work, time or waiting; the prefix is the
// internal/ package (or proc, client, env, ladder, trace for the process,
// the harness, the machine and the two derived views).
var perLayer = []metricDef{
	{"txlog.records_per_entry", "count", "higher"},
	{"txlog.appends_per_op", "count", "lower"},
	{"txlog.log_bytes_per_user_byte", "B/B", "lower"},
	{"core.stage.queue_wait_p50_us", "us", "lower"},
	{"core.stage.execute_p50_us", "us", "lower"},
	{"core.stage.batch_wait_p50_us", "us", "lower"},
	{"core.stage.append_p50_us", "us", "lower"},
	{"core.stage.quorum_wait_p50_us", "us", "lower"},
	{"core.stage.tracker_release_p50_us", "us", "lower"},
	{"core.stage.replica_read_wait_p50_us", "us", "lower"},
	{"server.stage.read_parse_p50_us", "us", "lower"},
	{"server.stage.reply_write_p50_us", "us", "lower"},
	{"core.appends_retried", "count", "lower"},
	{"core.replica_reads_redirected", "count", "lower"},
	{"core.barrier_ops", "count", "lower"},
	{"core.replica_bootstrap_ms", "ms", "lower"},
	{"proc.cpu_us_per_op", "us", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.alloc_bytes_per_op", "B", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_total_ms", "ms", "lower"},
	{"client.self_us_per_op", "us", "lower"},
	{"client.allocs_per_op", "count", "lower"},
	{"env.calib_ns", "ns", "lower"},
	{"env.steal_pct", "%", "lower"},
	// The ladder: one rung per layer's public entry point, ns per call.
	{"resp.parse_ns", "ns", "lower"},
	{"resp.write_ns", "ns", "lower"},
	{"server.stub_rtt_us", "us", "lower"},
	{"server.stub_pipelined_ns", "ns", "lower"},
	{"engine.get_ns", "ns", "lower"},
	{"engine.set_ns", "ns", "lower"},
	{"tracker.write_commit_ns", "ns", "lower"},
	{"txlog.append_ns", "ns", "lower"},
	{"txlog.read_ns", "ns", "lower"},
	{"core.get_ns", "ns", "lower"},
	{"core.set_ns", "ns", "lower"},
	{"snapshot.builder_tick_ms", "ms", "lower"},
	{"obs.record_ns", "ns", "lower"},
	{"core.self_get_ns", "ns", "lower"},
	{"core.self_set_ns", "ns", "lower"},
	{"server.self_rtt_us", "us", "lower"},
	{"ladder.get_explained_share", "ratio", "higher"},
	{"ladder.set_explained_share", "ratio", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// counters is every cumulative count the layers expose through public
// accessors, read at the two edges of the measured window.
type counters struct {
	log     txlog.Stats
	primary core.StatsView
	replica core.StatsView
	mem     runtime.MemStats
	cpu     time.Duration
	host    hostCPU
}

func readCounters(st *stack) counters {
	c := counters{log: st.log.Stats(), primary: st.primary.node.Stats().Snapshot(), cpu: processCPU(), host: readHostCPU()}
	if st.replica != nil {
		c.replica = st.replica.node.Stats().Snapshot()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is the machine's cumulative CPU accounting, in clock ticks:
// all of it, and the part during which a virtual CPU had work to run but
// the hypervisor ran someone else.
type hostCPU struct{ total, stolen float64 }

// readHostCPU reads the first line of /proc/stat; where there is none
// the machine reports no stolen time.
func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 7 {
			h.stolen = v
		}
	}
	return h
}

// ratio is a/b, and 0 where the workload gives the ratio no base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the counter deltas of a window of ops operations,
// and the stage histograms zeroed at its start, into the per-layer rows
// that need no traced pass. clientAllocs is the harness's own share of
// the allocations, measured by the dry pass.
func layerMetrics(st *stack, before, after counters, ops int, clientAllocs, clientBytes float64) map[string]float64 {
	n := float64(ops)
	records := float64(after.log.Records - before.log.Records)
	m := map[string]float64{
		"txlog.records_per_entry": ratio(records, float64(after.log.DataAppends-before.log.DataAppends)),
		"txlog.appends_per_op":    float64(after.log.Appends-before.log.Appends) / n,
		// One record is one acknowledged SET of a key and a value.
		"txlog.log_bytes_per_user_byte": ratio(float64(after.log.PayloadBytes-before.log.PayloadBytes), records*(keyLen+valueLen)),

		"core.appends_retried":          float64(after.primary.AppendsRetried - before.primary.AppendsRetried),
		"core.replica_reads_redirected": float64(after.replica.ReplicaReadsRedirected - before.replica.ReplicaReadsRedirected),
		"core.barrier_ops":              float64(after.primary.BarrierOps - before.primary.BarrierOps),

		"proc.cpu_us_per_op":      float64(after.cpu-before.cpu) / 1e3 / n,
		"proc.allocs_per_op":      float64(after.mem.Mallocs-before.mem.Mallocs)/n - clientAllocs,
		"proc.alloc_bytes_per_op": float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/n - clientBytes,
		"proc.gc_cycles":          float64(after.mem.NumGC - before.mem.NumGC),
		"proc.gc_pause_total_ms":  float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6,
		"client.allocs_per_op":    clientAllocs,
		"env.steal_pct":           100 * ratio(after.host.stolen-before.host.stolen, after.host.total-before.host.total),
	}
	stage := func(o *obs.Metrics, s obs.Stage) float64 {
		return float64(o.Stage(s).Percentile(0.50)) / 1e3
	}
	p := st.primary.obs
	m["core.stage.queue_wait_p50_us"] = stage(p, obs.StageQueueWait)
	m["core.stage.execute_p50_us"] = stage(p, obs.StageExecute)
	m["core.stage.batch_wait_p50_us"] = stage(p, obs.StageBatchWait)
	m["core.stage.append_p50_us"] = stage(p, obs.StageAppend)
	m["core.stage.quorum_wait_p50_us"] = stage(p, obs.StageQuorumWait)
	m["core.stage.tracker_release_p50_us"] = stage(p, obs.StageTrackerRelease)
	m["server.stage.read_parse_p50_us"] = stage(p, obs.StageReadParse)
	m["server.stage.reply_write_p50_us"] = stage(p, obs.StageReplyWrite)
	m["core.stage.replica_read_wait_p50_us"] = 0
	if st.replica != nil {
		m["core.stage.replica_read_wait_p50_us"] = stage(st.replica.obs, obs.StageReplicaReadWait)
	}
	return m
}

var (
	calibTable = crc64.MakeTable(crc64.ECMA)
	calibBuf   = make([]byte, 64<<10)
	calibSink  atomic.Uint64 // keeps the spin's result alive
)

// calibrate times a fixed spin — CRC64 over 8 MiB — five times on the
// calling goroutine and returns the fastest. It runs right before and
// right after the measured window: the spin never changes, so when the
// two disagree the machine changed speed under the run, and a number the
// machine moved is shown beside the number it moved.
func calibrate() float64 {
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 5; rep++ {
		begin := time.Now()
		var sum uint64
		for i := 0; i < 128; i++ {
			sum = crc64.Update(sum, calibTable, calibBuf)
		}
		calibSink.Add(sum)
		best = min(best, time.Since(begin))
	}
	return float64(best)
}
