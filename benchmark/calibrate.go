package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// calibrateMain answers the question the benchmark's bounds rest on: do
// two sets of runs of the same code agree? It runs sets×runs runs of
// every workload — workloads interleaved within a set, a new seed for
// every run — and, for each end-to-end metric on each workload, prints
// every set's median and quartiles, the spread within the sets, the
// largest gap between two sets' medians, and PASS when the gap and the
// spread stay inside the metric's bound in BENCHMARK.json.
func calibrateMain(spec string, seed int64, seconds int) error {
	var sets, runs int
	if n, err := fmt.Sscanf(spec, "%d,%d", &sets, &runs); n != 2 || err != nil || sets < 2 || runs < 2 {
		return fmt.Errorf("-calibrate %q: want S,R with at least 2 sets of at least 2 runs", spec)
	}
	file, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	printEnvelope(seed, seconds, nil)

	// values[workload][metric][set] is that set's runs.
	values := map[string]map[string][][]float64{}
	unsteady, failed := 0, 0
	for s := 0; s < sets; s++ {
		for r := 0; r < runs; r++ {
			for i := range workloads {
				wl := &workloads[i]
				res, err := measure(wl, seed+int64(s*runs+r), seconds, false, true)
				if err != nil {
					return err
				}
				if res.Unsteady {
					unsteady++
				}
				failed += res.Failed
				if values[wl.name] == nil {
					values[wl.name] = map[string][][]float64{}
				}
				for name, v := range res.Metrics {
					if values[wl.name][name] == nil {
						values[wl.name][name] = make([][]float64, sets)
					}
					values[wl.name][name][s] = append(values[wl.name][name][s], v)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s done\n", s+1, r+1, wl.name)
			}
		}
	}

	fmt.Printf("\n%d sets of %d runs; %d unsteady runs after one retry each; %d failed operations\n\n", sets, runs, unsteady, failed)
	fmt.Println("| workload | metric | set medians [q1, q3] | spread | set gap | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|")
	allPass := failed == 0
	for i := range workloads {
		for _, m := range file.EndToEnd {
			perSet := values[workloads[i].name][m.Name]
			var cells string
			var medians, all []float64
			for _, v := range perSet {
				q1, q3 := quartiles(v)
				medians = append(medians, median(v))
				all = append(all, v...)
				cells += fmt.Sprintf("%.4g [%.4g, %.4g] ", median(v), q1, q3)
			}
			gap := 0.0
			for _, a := range medians {
				for _, b := range medians {
					gap = math.Max(gap, math.Abs(a-b)/math.Min(a, b))
				}
			}
			// The driver judges the spread of every metric but set-up time.
			verdict := "PASS"
			if gap > m.Bound || (m.Name != "setup_s" && spread(all) > m.Bound) {
				verdict, allPass = "FAIL", false
			}
			fmt.Printf("| %s | %s | %s| %.2f%% | %.2f%% | %.0f%% | %s |\n",
				workloads[i].name, m.Name, cells, 100*spread(all), 100*gap, 100*m.Bound, verdict)
		}
	}

	// Counts made by the program repeat exactly on the workloads that never
	// wait on a timer.
	fmt.Println("\n| workload | proc.allocs_per_op, every run | |")
	fmt.Println("|---|---|---|")
	for i := range workloads {
		wl := &workloads[i]
		var cells string
		seen := map[string]bool{}
		for _, set := range values[wl.name]["proc.allocs_per_op"] {
			for _, x := range set {
				c := fmt.Sprintf("%.2f", x)
				cells += c + " "
				seen[c] = true
			}
		}
		verdict := "varies with wall time"
		if !wl.timed {
			verdict = "PASS: identical to two decimals"
			if len(seen) > 1 {
				verdict, allPass = "FAIL: not identical", false
			}
		}
		fmt.Printf("| %s | %s| %s |\n", wl.name, cells, verdict)
	}
	if !allPass {
		return fmt.Errorf("calibration failed: see FAIL rows above")
	}
	return nil
}
