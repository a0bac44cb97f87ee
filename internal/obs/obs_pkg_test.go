package obs

import (
	"bufio"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestSlowlogThreshold(t *testing.T) {
	s := newSlowlog(5*time.Millisecond, 4)
	argv := [][]byte{[]byte("SET"), []byte("k"), []byte("v")}
	s.maybeNote("SET", argv, int64(time.Millisecond), 0, 0, 0) // below
	if s.Len() != 0 || s.Total() != 0 {
		t.Fatal("below-threshold command was logged")
	}
	s.maybeNote("SET", argv, int64(7*time.Millisecond), int64(time.Millisecond), int64(2*time.Millisecond), int64(4*time.Millisecond))
	if s.Len() != 1 || s.Total() != 1 {
		t.Fatal("above-threshold command was not logged")
	}
	e := s.Recent(1)[0]
	if e.Cmd != "SET" || e.Total != 7*time.Millisecond || e.Queue != time.Millisecond ||
		e.Exec != 2*time.Millisecond || e.Commit != 4*time.Millisecond {
		t.Fatalf("entry wrong: %+v", e)
	}
	if len(e.Args) != 3 || e.Args[0] != "SET" {
		t.Fatalf("args wrong: %v", e.Args)
	}
	// Ring bound: 10 slow entries in a 4-ring keep the newest 4; IDs
	// keep counting.
	for i := 0; i < 10; i++ {
		s.maybeNote("GET", nil, int64(time.Duration(10+i)*time.Millisecond), 0, 0, 0)
	}
	if s.Len() != 4 || s.Total() != 11 {
		t.Fatalf("len=%d total=%d want 4/11", s.Len(), s.Total())
	}
	rec := s.Recent(4)
	if rec[0].Total != 19*time.Millisecond || rec[0].ID != 10 {
		t.Fatalf("newest entry wrong: %+v", rec[0])
	}
	// Threshold is adjustable at runtime.
	s.SetThreshold(time.Second)
	s.maybeNote("GET", nil, int64(500*time.Millisecond), 0, 0, 0)
	if s.Total() != 11 {
		t.Fatal("raised threshold did not filter")
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("reset kept entries")
	}
}

func TestFinishCommandRecordsEverything(t *testing.T) {
	m := New(Options{SlowlogThreshold: 5 * time.Millisecond})
	m.FinishCommand("SET", [][]byte{[]byte("SET"), []byte("k")}, int64(10*time.Millisecond), int64(time.Millisecond), int64(2*time.Millisecond), 0)
	if m.Stage(StageE2E).Count() != 1 {
		t.Fatal("e2e histogram not recorded")
	}
	if m.Command("SET").Count() != 1 {
		t.Fatal("per-command histogram not recorded")
	}
	if m.Slow.Len() != 1 {
		t.Fatal("slowlog missed a 10ms command at 5ms threshold")
	}
	if e := m.Slow.Recent(1); len(e) != 1 || e[0].Commit != 7*time.Millisecond {
		t.Fatalf("slowlog entry wrong: %+v", e)
	}
	m.ResetLatency()
	if m.Stage(StageE2E).Count() != 0 || m.Command("SET").Count() != 0 {
		t.Fatal("ResetLatency left samples")
	}
}

// TestPrometheusExposition validates the /metrics output: parseable
// lines, monotonic cumulative buckets, +Inf equal to _count, and
// presence of registered counters and named histograms.
func TestPrometheusExposition(t *testing.T) {
	m := New(Options{})
	m.Stage(StageQueueWait).Observe(50 * time.Microsecond)
	m.Stage(StageAppend).Observe(2 * time.Millisecond)
	m.Command("SET").Observe(time.Millisecond)
	azh := &Histogram{}
	azh.Observe(300 * time.Microsecond)
	m.RegisterHistogram("az_append", `az="az-1"`, azh)
	m.Named("snapshot_build").Observe(80 * time.Millisecond)
	m.RegisterCounter("commands", `node="n1"`, func() int64 { return 42 })
	m.RegisterCounter("appends_failed", "", func() int64 { return 3 })
	m.RegisterCounter("deltas_emitted_total", "", func() int64 { return 5 })
	m.RegisterGauge("queue_depth", `node="n1"`, func() int64 { return 7 })
	var off *Metrics // instrumentation off: registering is a no-op
	off.RegisterCounter("commands", "", func() int64 { return 1 })
	off.RegisterGauge("queue_depth", "", func() int64 { return 1 })

	rr := httptest.NewRecorder()
	Handler(m).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		`memorydb_stage_duration_seconds_bucket{stage="queue_wait",le="+Inf"} 1`,
		`memorydb_command_duration_seconds_count{cmd="SET"} 1`,
		`memorydb_az_append_duration_seconds_count{az="az-1"} 1`,
		"memorydb_snapshot_build_duration_seconds_count 1",
		`memorydb_commands_total{node="n1"} 42`,
		"memorydb_appends_failed_total 3",
		"# TYPE memorydb_appends_failed_total counter",
		"memorydb_deltas_emitted_total 5",
		"# TYPE memorydb_queue_depth gauge",
		`memorydb_queue_depth{node="n1"} 7`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	validatePromText(t, strings.NewReader(body))
}

// validatePromText checks every line is a comment or `name value` /
// `name{labels} value` with a parseable float, and that within each
// histogram the bucket counts are nondecreasing and +Inf == _count.
func validatePromText(t *testing.T, r io.Reader) {
	t.Helper()
	sc := bufio.NewScanner(r)
	lastBucket := map[string]float64{}
	infCount := map[string]float64{}
	countVal := map[string]float64{}
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line %q", line)
		}
		name, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		switch {
		case strings.Contains(name, "_bucket{"):
			series := name[:strings.Index(name, "le=")]
			if val < lastBucket[series] {
				t.Fatalf("bucket counts decrease in %q", line)
			}
			lastBucket[series] = val
			if strings.Contains(name, `le="+Inf"`) {
				infCount[series] = val
			}
		case strings.Contains(name, "_count"):
			// Normalize `family_count{labels}` / `family_count` to the
			// same series key bucket lines produce (family_bucket{labels,).
			var base string
			if i := strings.Index(name, "_count{"); i >= 0 {
				base = name[:i] + "_bucket{" + strings.TrimSuffix(name[i+len("_count{"):], "}") + ","
			} else {
				base = strings.TrimSuffix(name, "_count") + "_bucket{"
			}
			countVal[base] = val
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for base, c := range countVal {
		if inf, ok := infCount[base]; ok && inf != c {
			t.Fatalf("series %q: le=+Inf %v != _count %v", base, inf, c)
		}
	}
	if len(infCount) == 0 {
		t.Fatal("no histogram buckets found")
	}
}
