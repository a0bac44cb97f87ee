package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/engine"
	"memorydb/internal/resp"
	"memorydb/internal/txlog"
)

const (
	datasetKeys  = 200_000
	prefillBatch = 500
	// A run is unsteady — the sandbox, not the program, set its numbers —
	// when the calibration spin moved by more than unsteadyShare between
	// the two edges of the measured window, or when the hypervisor kept
	// more than maxStealPct of the window's CPU time from the machine.
	unsteadyShare = 0.15
	maxStealPct   = 1.0
)

// params is everything one child process is told.
type params struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Keys      int    `json:"keys"`
	Ops       int    `json:"ops"`
	Trace     bool   `json:"trace"`
	SetupOnly bool   `json:"setup_only"`
	OutDir    string `json:"out_dir"`
}

// result is what one child process reports: every metric it measured by
// name, the operation counts the contract asks for, and why it failed if
// it did.
type result struct {
	Workload  string             `json:"workload"`
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"latency_samples"`
	Unsteady  bool               `json:"unsteady"`
	Problems  []string           `json:"problems,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// runChild stands the stack up, loads it, runs the measured pass (and,
// when tracing, the traced pass and the ladder), and checks the outcome.
// started is when the process began: set-up time counts from there.
func runChild(p params, started time.Time) (*result, error) {
	wl, ok := findWorkload(p.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", p.Workload)
	}
	res := &result{Workload: wl.name, Metrics: map[string]float64{"core.replica_bootstrap_ms": 0}}

	st, err := startStack(wl.commit)
	if err != nil {
		return nil, err
	}
	var workers []*worker
	shutdown := sync.OnceFunc(func() {
		disconnect(workers)
		st.stop()
	})
	defer shutdown()
	ks := newKeyspace(p.Keys)
	if err := prefill(st, ks); err != nil {
		return nil, err
	}
	if wl.name == "replica_ryw" {
		took, err := st.startReplica()
		if err != nil {
			return nil, err
		}
		res.Metrics["core.replica_bootstrap_ms"] = float64(took) / 1e6
	}
	if workers, err = connect(st, wl, ks, p.Seed); err != nil {
		return nil, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.Metrics["heap_after_load_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	res.Metrics["setup_s"] = time.Since(started).Seconds()
	if p.SetupOnly {
		return res, nil
	}
	loaded := st.log.Stats().Records

	// The measured pass. Tracing is off; everything end to end comes
	// from here, and so do the counters and the stage histograms.
	var before counters
	var calibBefore float64
	measured := runPass(workers, p.Ops, time.Time{}, func() {
		calibBefore = calibrate()
		runtime.GC()
		st.primary.obs.ResetLatency()
		if st.replica != nil {
			st.replica.obs.ResetLatency()
		}
		before = readCounters(st)
	})
	after := readCounters(st)
	calibAfter := calibrate()

	res.Samples = measured.recorded
	res.Metrics["throughput_ops"] = measured.throughput
	res.Metrics["latency_p50_us"] = measured.p50us
	res.Metrics["latency_p99_us"] = measured.p99us
	res.Metrics["env.calib_ns"] = (calibBefore + calibAfter) / 2
	calibMoved := math.Abs(calibAfter-calibBefore) > unsteadyShare*math.Min(calibBefore, calibAfter)

	if p.Trace {
		if err := tracedPass(workers, p, measured, res); err != nil {
			return nil, err
		}
	}
	if err := checkOutcome(st, workers, ks, loaded, res); err != nil {
		return nil, err
	}

	// The harness prices itself only once the stack is down, when nothing
	// else in the process allocates: the allocation counts below are exact.
	shutdown()
	dry := dryPass(wl, p.Keys, p.Seed)
	res.Metrics["client.self_us_per_op"] = dry.selfUs
	for name, v := range layerMetrics(st, before, after, measured.recorded, dry.allocs, dry.bytes) {
		res.Metrics[name] = v
	}
	res.Unsteady = calibMoved || res.Metrics["env.steal_pct"] > maxStealPct
	for _, name := range []string{"core.appends_retried", "core.replica_reads_redirected", "core.barrier_ops"} {
		if res.Metrics[name] != 0 {
			res.problem("%s = %v in the measured window, must be 0", name, res.Metrics[name])
		}
	}
	return res, nil
}

// tracedPass repeats a quarter of the run with the harness recording
// spans around its own client calls, climbs the ladder, and writes every
// span out. Nothing end to end comes from here but the tracing overhead.
func tracedPass(workers []*worker, p params, measured pass, res *result) error {
	wl := workers[0].wl
	epoch := time.Now()
	traced := runPass(workers, p.Ops/4, epoch, func() {})
	res.Metrics["trace.overhead_pct"] = 100 * (measured.throughput - traced.throughput) / measured.throughput
	bufs := make([]*spanBuf, 0, len(workers)+1)
	for _, w := range workers {
		bufs = append(bufs, w.sb)
	}
	ladderSpans := newSpanBuf(epoch, uint32(len(workers))<<28, 64)
	ladder, err := runLadder(p.Seed, ladderSpans)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	for name, v := range ladder {
		res.Metrics[name] = v
	}
	// How much of the median round trip the rungs account for: the
	// front-end's round trip around a constant reply, plus the node.
	res.Metrics["ladder.get_explained_share"], res.Metrics["ladder.set_explained_share"] = 0, 0
	switch wl.name {
	case "get":
		res.Metrics["ladder.get_explained_share"] = (ladder["server.stub_rtt_us"] + ladder["core.get_ns"]/1e3) / measured.p50us
	case "set":
		res.Metrics["ladder.set_explained_share"] = (ladder["server.stub_rtt_us"] + ladder["core.set_ns"]/1e3) / measured.p50us
	}
	res.TraceFile = filepath.Join(p.OutDir, "trace-"+wl.name+".jsonl")
	if err := writeSpans(res.TraceFile, append(bufs, ladderSpans)...); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// checkOutcome runs outside every timed window: was every reply right,
// and is every acknowledged write where the paper promises it is? loaded
// is the log's record count before the first pass.
func checkOutcome(st *stack, workers []*worker, ks *keyspace, loaded int64, res *result) error {
	wl := workers[0].wl
	written := 0
	for _, w := range workers {
		res.Attempted += w.attempted
		res.Failed += w.failed
		written += w.written
		if w.firstFail != "" {
			res.Problems = append(res.Problems, w.firstFail)
		}
	}
	if !wl.writes {
		return nil
	}
	if got, want := st.log.Stats().Records, loaded+int64(written); got != want {
		res.problem("log holds %d records, want %d loaded + %d acknowledged writes", got, loaded, written)
	}
	if err := readBack(workers[0].c, ks, res); err != nil {
		return err
	}
	if wl.name == "set" {
		return replayLog(st.log, ks, res)
	}
	return nil
}

// keyBatches calls fn with the argv of cmd over successive runs of at
// most prefillBatch keys; withValues interleaves each key's current value.
func keyBatches(ks *keyspace, cmd string, withValues bool, fn func(first int, argv [][]byte) error) error {
	for first := 0; first < ks.n; first += prefillBatch {
		last := min(first+prefillBatch, ks.n)
		argv := [][]byte{[]byte(cmd)}
		for k := first; k < last; k++ {
			argv = append(argv, appendKey(nil, k))
			if withValues {
				argv = append(argv, appendValue(nil, k, ks.versions[k]))
			}
		}
		if err := fn(first, argv); err != nil {
			return err
		}
	}
	return nil
}

// prefill loads every key at version 0 through the server.
func prefill(st *stack, ks *keyspace) error {
	c, err := dial(st.primary.srv.Addr())
	if err != nil {
		return err
	}
	defer c.close()
	return keyBatches(ks, "MSET", true, func(first int, argv [][]byte) error {
		if v, err := c.do(argv...); err != nil || !isOK(v) {
			return fmt.Errorf("prefill MSET at key %d: reply %v, error %v", first, v, err)
		}
		return nil
	})
}

// readBack reads every key through the server and compares it with the
// version the harness last saw acknowledged.
func readBack(c *client, ks *keyspace, res *result) error {
	return keyBatches(ks, "MGET", false, func(first int, argv [][]byte) error {
		v, err := c.do(argv...)
		if err != nil || v.Type != resp.Array || len(v.Array) != len(argv)-1 {
			return fmt.Errorf("read back MGET at key %d: reply %v, error %v", first, v, err)
		}
		for i, got := range v.Array {
			k := first + i
			if !isBulk(got, appendValue(nil, k, ks.versions[k])) {
				res.problem("read back key %d: not version %d", k, ks.versions[k])
			}
		}
		return nil
	})
}

// replayLog is the paper's promise as an exit code: a fresh engine built
// from the transaction log alone must hold every acknowledged write.
// Payloads are self-framing, so the data entries are applied a MiB of
// concatenated payloads at a time, the way group commit concatenates
// records: Engine.Apply sets up a decoder per call, and one call per
// entry would take longer than the run it checks.
func replayLog(log *txlog.Log, ks *keyspace, res *result) error {
	eng := engine.New(clock.NewReal())
	r := log.NewReader(txlog.ZeroID)
	var chunk []byte
	apply := func() error {
		if err := eng.Apply(chunk); err != nil {
			return fmt.Errorf("replay log up to %v: %w", r.Position(), err)
		}
		chunk = chunk[:0]
		return nil
	}
	for {
		e, ok, err := r.TryNext()
		if err != nil {
			return fmt.Errorf("replay log after %v: %w", r.Position(), err)
		}
		if !ok {
			break
		}
		if e.Type != txlog.EntryData {
			continue
		}
		if chunk = append(chunk, e.Payload...); len(chunk) >= 1<<20 {
			if err := apply(); err != nil {
				return err
			}
		}
	}
	if err := apply(); err != nil {
		return err
	}
	for k := 0; k < ks.n; k++ {
		got := eng.Exec([][]byte{cmdGET, appendKey(nil, k)}).Reply
		if !isBulk(got, appendValue(nil, k, ks.versions[k])) {
			res.problem("engine rebuilt from the log: key %d is not at acknowledged version %d", k, ks.versions[k])
		}
	}
	return nil
}

// dryCost is the harness's own share of a measured operation.
type dryCost struct{ allocs, bytes, selfUs float64 }

// dryPass runs the workload's own client code against an in-memory
// responder that allocates nothing, so what it counts — allocations and
// time per operation — is the harness's share of the process totals.
func dryPass(wl *workload, keys int, seed int64) dryCost {
	const ops = 20_000
	ks := newKeyspace(keys)
	w := &worker{wl: wl, ks: ks, g: newGen(seed, 0), epoch: time.Now()}
	w.c = newClient(&responder{ks: ks})
	w.cr = newClient(&responder{ks: ks})
	n := (ops + wl.depth - 1) / wl.depth * wl.depth
	w.run(n / 10) // grow the responder's buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	w.run(n)
	took := time.Since(begin)
	runtime.ReadMemStats(&after)
	if w.failed > 0 {
		fmt.Fprintf(os.Stderr, "dry pass: %d wrong replies from the harness's own responder: %s\n", w.failed, w.firstFail)
	}
	return dryCost{
		allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		selfUs: float64(took) / 1e3 / float64(n),
	}
}
