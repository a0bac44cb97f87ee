package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// promBounds is the coarse exposition ladder in nanoseconds. The fine
// 592-bucket ladder stays internal (percentiles are computed from it);
// scrape output re-buckets onto this Redis-latency-shaped ladder so
// dashboards get ~20 series per histogram instead of ~600.
var promBounds = []int64{
	int64(10 * time.Microsecond),
	int64(25 * time.Microsecond),
	int64(50 * time.Microsecond),
	int64(100 * time.Microsecond),
	int64(250 * time.Microsecond),
	int64(500 * time.Microsecond),
	int64(1 * time.Millisecond),
	int64(2500 * time.Microsecond),
	int64(5 * time.Millisecond),
	int64(10 * time.Millisecond),
	int64(25 * time.Millisecond),
	int64(50 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(250 * time.Millisecond),
	int64(500 * time.Millisecond),
	int64(1 * time.Second),
	int64(2500 * time.Millisecond),
	int64(5 * time.Second),
	int64(10 * time.Second),
}

func promFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// writePromHistogram emits one histogram series in Prometheus text
// exposition format (seconds, cumulative le buckets, _sum, _count).
func writePromHistogram(w io.Writer, name, label string, h *Histogram) {
	cum := h.CumulativeAtNanos(promBounds)
	sep := ""
	if label != "" {
		sep = ","
	}
	for i, b := range promBounds {
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n",
			name, label, sep, promFloat(float64(b)/1e9), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, label, sep, h.Count())
	if label != "" {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, label, promFloat(float64(h.Sum())/1e9))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, label, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(float64(h.Sum())/1e9))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	}
}

// WritePrometheus writes the full registry — stage histograms,
// per-command histograms, registered named histograms, and counter
// callbacks — as Prometheus text exposition (version 0.0.4).
func (m *Metrics) WritePrometheus(w io.Writer) {
	if m == nil {
		return
	}
	fmt.Fprintf(w, "# HELP memorydb_stage_duration_seconds Write-path stage latency.\n")
	fmt.Fprintf(w, "# TYPE memorydb_stage_duration_seconds histogram\n")
	for s := Stage(0); s < NumStages; s++ {
		writePromHistogram(w, "memorydb_stage_duration_seconds",
			fmt.Sprintf("stage=%q", s.String()), &m.stages[s])
	}
	fmt.Fprintf(w, "# HELP memorydb_command_duration_seconds End-to-end command latency by command.\n")
	fmt.Fprintf(w, "# TYPE memorydb_command_duration_seconds histogram\n")
	m.EachCommand(func(name string, h *Histogram) {
		writePromHistogram(w, "memorydb_command_duration_seconds",
			fmt.Sprintf("cmd=%q", name), h)
	})
	// Named histograms, grouped by metric name so TYPE headers appear
	// once per family.
	named := m.namedSnapshot()
	byName := map[string][]NamedHistogram{}
	names := []string{}
	for _, nh := range named {
		if _, ok := byName[nh.Name]; !ok {
			names = append(names, nh.Name)
		}
		byName[nh.Name] = append(byName[nh.Name], nh)
	}
	sort.Strings(names)
	for _, n := range names {
		full := "memorydb_" + n + "_duration_seconds"
		fmt.Fprintf(w, "# TYPE %s histogram\n", full)
		for _, nh := range byName[n] {
			writePromHistogram(w, full, nh.Label, nh.H)
		}
	}
	// Counters, grouped the same way.
	ctrs := m.counterSnapshot()
	byCtr := map[string][]Counter{}
	cnames := []string{}
	for _, c := range ctrs {
		if _, ok := byCtr[c.Name]; !ok {
			cnames = append(cnames, c.Name)
		}
		byCtr[c.Name] = append(byCtr[c.Name], c)
	}
	sort.Strings(cnames)
	for _, n := range cnames {
		// Registered names that already carry the conventional counter
		// suffix (e.g. snapshot_deltas_emitted_total, which INFO reports
		// verbatim) must not have it doubled on exposition.
		full := "memorydb_" + n
		if !strings.HasSuffix(n, "_total") {
			full += "_total"
		}
		fmt.Fprintf(w, "# TYPE %s counter\n", full)
		for _, c := range byCtr[n] {
			if c.Label != "" {
				fmt.Fprintf(w, "%s{%s} %d\n", full, c.Label, c.Fn())
			} else {
				fmt.Fprintf(w, "%s %d\n", full, c.Fn())
			}
		}
	}
	// Gauges, grouped by name like counters but with no suffix.
	gs := m.gaugeSnapshot()
	byGauge := map[string][]Gauge{}
	gnames := []string{}
	for _, g := range gs {
		if _, ok := byGauge[g.Name]; !ok {
			gnames = append(gnames, g.Name)
		}
		byGauge[g.Name] = append(byGauge[g.Name], g)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		full := "memorydb_" + n
		fmt.Fprintf(w, "# TYPE %s gauge\n", full)
		for _, g := range byGauge[n] {
			if g.Label != "" {
				fmt.Fprintf(w, "%s{%s} %d\n", full, g.Label, g.Fn())
			} else {
				fmt.Fprintf(w, "%s %d\n", full, g.Fn())
			}
		}
	}
	// Slowlog depth as a gauge-ish counter pair for alerting.
	fmt.Fprintf(w, "# TYPE memorydb_slowlog_entries_total counter\n")
	fmt.Fprintf(w, "memorydb_slowlog_entries_total %d\n", m.Slow.Total())
	writeRuntimeMetrics(w)
}

// Handler serves the registry at any path (mount it at /metrics) in
// Prometheus text exposition format. stdlib net/http only.
func Handler(m *Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WritePrometheus(w)
	})
}
