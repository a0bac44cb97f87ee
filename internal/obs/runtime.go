package obs

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"
)

// Go runtime, build, and uptime metrics, appended to every scrape. The
// go_* families follow the conventional client_golang names so existing
// dashboards and alerts apply unmodified; memorydb_build_info carries
// the module version and VCS revision as labels with a constant value of
// 1 (the standard join-key idiom for version dashboards).

var processStart = time.Now()

// buildVersion/buildCommit are resolved once from the binary's embedded
// build info: module version, plus the vcs.revision stamped by `go build`
// in a git checkout ("unknown" outside one).
var buildVersion, buildCommit = func() (string, string) {
	version, commit := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				commit = s.Value
			}
		}
	}
	return version, commit
}()

// writeRuntimeMetrics emits process-level health: goroutines, GC pause
// totals, heap gauges, uptime, and build identity. ReadMemStats costs a
// brief stop-the-world, which is fine at scrape cadence.
func writeRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# TYPE go_goroutines gauge\n")
	fmt.Fprintf(w, "go_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# TYPE go_gc_cycles_total counter\n")
	fmt.Fprintf(w, "go_gc_cycles_total %d\n", ms.NumGC)
	fmt.Fprintf(w, "# TYPE go_gc_pause_seconds_total counter\n")
	fmt.Fprintf(w, "go_gc_pause_seconds_total %s\n", promFloat(float64(ms.PauseTotalNs)/1e9))
	fmt.Fprintf(w, "# TYPE go_heap_alloc_bytes gauge\n")
	fmt.Fprintf(w, "go_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# TYPE go_heap_sys_bytes gauge\n")
	fmt.Fprintf(w, "go_heap_sys_bytes %d\n", ms.HeapSys)
	fmt.Fprintf(w, "# TYPE go_heap_objects gauge\n")
	fmt.Fprintf(w, "go_heap_objects %d\n", ms.HeapObjects)
	fmt.Fprintf(w, "# TYPE memorydb_uptime_seconds gauge\n")
	fmt.Fprintf(w, "memorydb_uptime_seconds %s\n", promFloat(time.Since(processStart).Seconds()))
	fmt.Fprintf(w, "# TYPE memorydb_build_info gauge\n")
	fmt.Fprintf(w, "memorydb_build_info{version=%q,commit=%q,go=%q} 1\n",
		buildVersion, buildCommit, runtime.Version())
}
