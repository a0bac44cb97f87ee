package main

import (
	"bytes"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"testing"
	"time"
)

// The oracle for percentile: the smallest sample that has at least q of
// the samples at or below it, found by counting.
func TestPercentileAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 200; n += 7 {
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63n(50) // plenty of ties
		}
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			want := v[n-1]
			for _, x := range v {
				atOrBelow := sort.Search(n, func(i int) bool { return v[i] > x })
				if float64(atOrBelow) >= q*float64(n) {
					want = x
					break
				}
			}
			if got := percentile(v, q); got != want {
				t.Fatalf("percentile(n=%d, q=%v) = %d, want %d", n, q, got, want)
			}
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("percentile of nothing = %d", got)
	}
}

// The expected quartiles are what Python prints for
// statistics.quantiles(v, n=4): the driver judges spreads with it.
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{50, 40, 30, 20, 10}, 15, 30, 45},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 8, 32},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if med := median(c.v); med != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: quartiles %v %v %v, want %v %v %v", c.v, q1, med, q3, c.q1, c.med, c.q3)
		}
		if got, want := spread(c.v), (c.q3-c.q1)/c.med; math.Abs(got-want) > 1e-12 {
			t.Errorf("%v: spread %v, want %v", c.v, got, want)
		}
	}
}

// Of five stretches the quiet one is the second best; of forty, the second
// to the eleventh best, pooled.
func TestQuietStretches(t *testing.T) {
	five := [][]int64{{50, 51}, {10, 11}, {40, 41}, {20, 21}, {30, 31}, {}}
	if rate, p50 := quietRate([]float64{5, 1, 4, 2, 3}), quietPercentile(five, 0.5); rate != 4 || p50 != 0.020 {
		t.Fatalf("of five stretches: rate %v and p50 %v µs, want 4 and 0.02", rate, p50)
	}
	// Stretch i of forty holds the latencies 1000i+1 .. 1000i+100, so the
	// quiet ten are stretches 1 to 10 whatever the quantile.
	forty := make([][]int64, 40)
	rates := make([]float64, 40)
	var pool []int64
	for i := range forty {
		j := (i * 7) % 40 // ranked neither best first nor worst first
		for k := int64(1); k <= 100; k++ {
			forty[i] = append(forty[i], int64(1000*j)+k)
		}
		rates[i] = float64(100 - j)
		if j >= 1 && j <= 10 {
			pool = append(pool, forty[i]...)
		}
	}
	sort.Slice(pool, func(a, b int) bool { return pool[a] < pool[b] })
	if rate := quietRate(rates); rate != 94.5 {
		t.Errorf("of forty stretches: rate %v, want the mean of 99 .. 90", rate)
	}
	for _, q := range []float64{0.5, 0.99} {
		if got, want := quietPercentile(forty, q), float64(percentile(pool, q))/1e3; got != want {
			t.Errorf("of forty stretches: q=%v gives %v µs, want %v", q, got, want)
		}
	}
	if one := quietPercentile([][]int64{{7000}}, 0.99); one != 7 {
		t.Errorf("a single stretch: %v µs, want 7", one)
	}
}

// wire records every byte a worker sends.
type wire struct {
	*responder
	sent bytes.Buffer
}

func (w *wire) Write(b []byte) (int, error) {
	w.sent.Write(b)
	return w.responder.Write(b)
}

func commandStream(t *testing.T, wl *workload, seed int64) []byte {
	t.Helper()
	ks := newKeyspace(2000)
	primary, replica := &wire{responder: &responder{ks: ks}}, &wire{responder: &responder{ks: ks}}
	w := &worker{wl: wl, ks: ks, g: newGen(seed, 0), epoch: time.Now(), c: newClient(primary), cr: newClient(replica)}
	w.run(10 * wl.depth)
	if w.failed > 0 {
		t.Fatalf("%s: the harness's own responder gave %d wrong replies: %s", wl.name, w.failed, w.firstFail)
	}
	return append(primary.sent.Bytes(), replica.sent.Bytes()...)
}

func TestSameSeedSameCommandStream(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		a, b, other := commandStream(t, wl, 7), commandStream(t, wl, 7), commandStream(t, wl, 8)
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different command streams (%d and %d bytes)", wl.name, len(a), len(b))
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same command stream", wl.name)
		}
	}
	if a, b := appendValue(nil, 5, 1), appendValue(nil, 5, 2); len(a) != valueLen || bytes.Equal(a, b) {
		t.Errorf("values of two versions of one key: %d bytes, equal=%v", len(a), bytes.Equal(a, b))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the harness must name the same workloads and the
// same metrics, with the same units and directions.
func TestBenchmarkFileAgreesWithHarness(t *testing.T) {
	file, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	agree := func(kind string, listed []boundedMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", kind, len(listed), len(defs))
		}
		for i, m := range listed {
			if d := defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !nameRE.MatchString(m.Name) {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, harness %+v", kind, i, m, d)
			}
		}
	}
	agree("end_to_end", file.EndToEnd, endToEnd)
	agree("per_layer", file.PerLayer, perLayer)
	for _, m := range file.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// A 2000-operation run of each workload on a 2000-key dataset: no
// operation may fail, and a traced run must report exactly the metrics
// the two tables name.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			trace := wl.name == "get" // one ladder is enough
			res, err := runChild(params{Workload: wl.name, Seed: 1, Keys: 2000, Ops: 2000, Trace: trace, OutDir: t.TempDir()}, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted < 1900 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Problems)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, reported %v", d.name, v, ok)
				}
			}
			if !trace {
				return
			}
			want := map[string]bool{}
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				want[d.name] = true
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("metric %s is listed but was not reported", d.name)
				}
			}
			for name := range res.Metrics {
				if !want[name] {
					t.Errorf("metric %s was reported but is not listed", name)
				}
			}
		})
	}
}
