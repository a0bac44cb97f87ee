// Command benchmark measures the real stack — txlog.Service, core.Node,
// server.Server with multiplexing, loopback TCP, a resp client — end to
// end and layer by layer. See README.md for what each workload is for.
//
//	bash benchmark/run.sh                          every workload, every metric
//	bash benchmark/run.sh --workload get --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh -calibrate 3,5           is the benchmark steady?
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// processStart is read as early as a Go program can read a clock; set-up
// time counts from here.
var processStart = time.Now()

// The conditions every number is measured under. The child processes are
// started with exactly these; the parent refuses a different wish.
const (
	pinnedProcs = "2"
	pinnedGOGC  = "100"
	// setupRuns is how many times a run sets the stack up: the reported
	// set-up time and loaded heap are the medians.
	setupRuns = 3
	outDir    = "benchmark/out"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: all four, every metric)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same command stream")
		seconds      = flag.Int("seconds", 10, "run length the fixed operation counts are scaled to")
		trace        = flag.Int("trace", -1, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics from a traced run")
		calib        = flag.String("calibrate", "", "S,R: run S sets of R runs of every workload and judge each metric's bound in BENCHMARK.json")
		child        = flag.String("child", "", "internal: JSON parameters of one child run")
	)
	flag.Parse()
	err := func() error {
		if *child != "" {
			return childMain(*child)
		}
		if err := checkConditions(); err != nil {
			return err
		}
		if *seconds < 1 || *seconds > 60 {
			return fmt.Errorf("-seconds %d: want 1 to 60", *seconds)
		}
		switch {
		case *calib != "":
			return calibrateMain(*calib, *seed, *seconds)
		case *workloadName != "":
			return driverMain(*workloadName, *seed, *seconds, *trace)
		}
		return reportMain(*seed, *seconds)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// checkConditions refuses to measure where the numbers would not mean
// what the README says they mean.
func checkConditions() error {
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("%d CPU: the benchmark pins GOMAXPROCS=%s and needs 2", runtime.NumCPU(), pinnedProcs)
	}
	for name, pinned := range map[string]string{"GOMAXPROCS": pinnedProcs, "GOGC": pinnedGOGC} {
		if v := os.Getenv(name); v != "" && v != pinned {
			return fmt.Errorf("%s=%s in the environment: the benchmark pins %s=%s, unset it", name, v, name, pinned)
		}
	}
	return nil
}

func childMain(arg string) error {
	var p params
	if err := json.Unmarshal([]byte(arg), &p); err != nil {
		return fmt.Errorf("-child: %w", err)
	}
	if got := runtime.GOMAXPROCS(0); fmt.Sprint(got) != pinnedProcs {
		return fmt.Errorf("child runs at GOMAXPROCS=%d, want %s", got, pinnedProcs)
	}
	res, err := runChild(p, processStart)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs one child process under the pinned conditions and returns
// what it reported.
func spawn(p params) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", string(arg))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+pinnedProcs, "GOGC="+pinnedGOGC)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", p.Workload, err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s child printed %q: %w", p.Workload, out.String(), err)
	}
	return &res, nil
}

// measure is one run of one workload: a fresh child process for the
// measured pass (and the traced pass when trace is set), and, when the
// end-to-end metrics are wanted, setupRuns−1 more that only set up, so
// that set-up time and loaded heap are medians of setupRuns. An unsteady
// run is repeated once and the steadier of the two is kept.
func measure(wl *workload, seed int64, seconds int, trace, endToEndWanted bool) (*result, error) {
	p := params{Workload: wl.name, Seed: seed, Keys: datasetKeys, Ops: wl.opsFor(seconds), Trace: trace, OutDir: outDir}
	res, err := spawn(p)
	if err != nil {
		return nil, err
	}
	if res.Unsteady {
		fmt.Fprintf(os.Stderr, "benchmark: %s run was unsteady (%.2f%% of its CPU time stolen, or the calibration spin moved); running it once more\n",
			wl.name, res.Metrics["env.steal_pct"])
		again, err := spawn(p)
		if err != nil {
			return nil, err
		}
		if !again.Unsteady || again.Metrics["env.steal_pct"] < res.Metrics["env.steal_pct"] {
			res = again
		}
	}
	if !endToEndWanted {
		return res, nil
	}
	setups := map[string][]float64{"setup_s": {res.Metrics["setup_s"]}, "heap_after_load_mb": {res.Metrics["heap_after_load_mb"]}}
	p.SetupOnly = true
	for i := 1; i < setupRuns; i++ {
		s, err := spawn(p)
		if err != nil {
			return nil, err
		}
		for name := range setups {
			setups[name] = append(setups[name], s.Metrics[name])
		}
	}
	for name, v := range setups {
		res.Metrics[name] = median(v)
	}
	return res, nil
}

// printMetrics prints each metric of defs by name with its unit.
func printMetrics(res *result, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%-18s %-40s %14.4f %s\n", res.Workload, d.name, res.Metrics[d.name], d.unit)
	}
}

func printOutcome(res *result) {
	state := ""
	if res.Unsteady {
		state = "  UNSTEADY: the sandbox took CPU time from the run or changed speed under it"
	}
	fmt.Printf("%-18s attempted %d, failed %d, latency samples %d%s\n", res.Workload, res.Attempted, res.Failed, res.Samples, state)
	for _, p := range res.Problems {
		fmt.Printf("%-18s problem: %s\n", res.Workload, p)
	}
	if res.TraceFile != "" {
		fmt.Printf("%-18s spans written to %s\n", res.Workload, res.TraceFile)
	}
}

// contractLine is the one JSON object the driver reads.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMain is the form the benchmark's driver calls: one workload, one
// seed, and as the last line of standard output one JSON object.
func driverMain(name string, seed int64, seconds, trace int) error {
	wl, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return errors.New("-workload needs -trace 0 or -trace 1")
	}
	printEnvelope(seed, seconds, wl)
	res, err := measure(wl, seed, seconds, trace == 1, trace == 0)
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	printMetrics(res, defs)
	printOutcome(res)
	line := contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	for _, d := range defs {
		line.Metrics[d.name] = contractValue{Value: res.Metrics[d.name], Unit: d.unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d failed operations", wl.name, res.Failed)
	}
	return nil
}

// reportMain runs every workload once, measured and traced, and prints
// every metric of both kinds.
func reportMain(seed int64, seconds int) error {
	printEnvelope(seed, seconds, nil)
	failed := 0
	for i := range workloads {
		res, err := measure(&workloads[i], seed, seconds, true, true)
		if err != nil {
			return err
		}
		printMetrics(res, endToEnd)
		printMetrics(res, perLayer)
		printOutcome(res)
		failed += res.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d failed operations", failed)
	}
	return nil
}

// printEnvelope stamps the run the way the BENCH_*.json artifacts are
// stamped: which code, which toolchain, which conditions, which inputs.
func printEnvelope(seed int64, seconds int, only *workload) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("envelope git_commit=%s go_version=%s gomaxprocs=%s gogc=%s num_cpu=%d seed=%d seconds=%d keys=%d generated_at=%s\n",
		commit, runtime.Version(), pinnedProcs, pinnedGOGC, runtime.NumCPU(), seed, seconds, datasetKeys, time.Now().UTC().Format(time.RFC3339))
	for i := range workloads {
		if wl := &workloads[i]; only == nil || only == wl {
			fmt.Printf("envelope workload=%s ops=%d connections=%d depth=%d\n", wl.name, wl.opsFor(seconds), wl.conns, wl.depth)
		}
	}
}
