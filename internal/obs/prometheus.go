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
	// Named histograms, counters and gauges, grouped by metric name so
	// TYPE headers appear once per family.
	for _, fam := range families(registered(m, &m.named), func(h NamedHistogram) string { return h.Name }) {
		full := "memorydb_" + fam[0].Name + "_duration_seconds"
		fmt.Fprintf(w, "# TYPE %s histogram\n", full)
		for _, nh := range fam {
			writePromHistogram(w, full, nh.Label, nh.H)
		}
	}
	// A counter family's name gains "_total" unless the registered name
	// already carries it (e.g. snapshot_deltas_emitted_total, which INFO
	// reports verbatim), so the suffix is never doubled.
	for _, fam := range families(registered(m, &m.values), func(s series) string { return s.name }) {
		full, typ := "memorydb_"+fam[0].name, "gauge"
		if fam[0].counter {
			full, typ = strings.TrimSuffix(full, "_total")+"_total", "counter"
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", full, typ)
		for _, s := range fam {
			if s.label != "" {
				fmt.Fprintf(w, "%s{%s} %d\n", full, s.label, s.fn())
			} else {
				fmt.Fprintf(w, "%s %d\n", full, s.fn())
			}
		}
	}
	// Slowlog depth as a gauge-ish counter pair for alerting.
	fmt.Fprintf(w, "# TYPE memorydb_slowlog_entries_total counter\n")
	fmt.Fprintf(w, "memorydb_slowlog_entries_total %d\n", m.Slow.Total())
	writeRuntimeMetrics(w)
}

// families groups xs by name in sorted name order, each family in
// registration order.
func families[T any](xs []T, name func(T) string) [][]T {
	byName := map[string][]T{}
	var names []string
	for _, x := range xs {
		if _, ok := byName[name(x)]; !ok {
			names = append(names, name(x))
		}
		byName[name(x)] = append(byName[name(x)], x)
	}
	sort.Strings(names)
	out := make([][]T, len(names))
	for i, n := range names {
		out[i] = byName[n]
	}
	return out
}

// Handler serves the registry at any path (mount it at /metrics) in
// Prometheus text exposition format. stdlib net/http only.
func Handler(m *Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WritePrometheus(w)
	})
}
