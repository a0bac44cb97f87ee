package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"memorydb/internal/resp"
)

// flagDefaults are the options main provisions from when no flag is set.
var flagDefaults = defineFlags()

// start provisions a deployment on 127.0.0.1:0 the way main does, from
// the flag defaults with a 100µs commit as set changes them, and stops it
// when the test ends.
func start(t *testing.T, set func(*options)) *deployment {
	t.Helper()
	o := *flagDefaults
	o.addr, o.commitLatency = "127.0.0.1:0", 100*time.Microsecond
	if set != nil {
		set(&o)
	}
	d, err := provision(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	return d
}

// client is one connection to a deployment's endpoint.
type client struct {
	nc net.Conn
	r  *resp.Reader
	w  *resp.Writer
}

func dial(t *testing.T, d *deployment) *client {
	t.Helper()
	nc, err := net.Dial("tcp", d.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &client{nc: nc, r: resp.NewReader(nc), w: resp.NewWriter(nc)}
}

// do sends one command and reads its reply.
func (c *client) do(args ...string) (resp.Value, error) {
	if err := c.w.WriteCommandStrings(args...); err != nil {
		return resp.Value{}, err
	}
	if err := c.w.Flush(); err != nil {
		return resp.Value{}, err
	}
	return c.r.ReadValue()
}

// must is do for a command that has to succeed.
func (c *client) must(t *testing.T, args ...string) resp.Value {
	t.Helper()
	v, err := c.do(args...)
	if err != nil || v.IsError() {
		t.Fatalf("%v: %v %v", args, v, err)
	}
	return v
}

// metrics renders the deployment's registry as /metrics serves it.
func metrics(d *deployment) string {
	var b strings.Builder
	d.metrics.WritePrometheus(&b)
	return b.String()
}

// TestFlightDumpWithoutPrimary: with every node crash-frozen, the Monitor
// alarms once its ticks pass PrimaryAlarmAfter (30 s at the 5 s interval),
// and DEBUG FLIGHT DUMP through the endpoint shows that alarm at once: it
// reads the cluster's merged timeline, not a primary's ring. DEBUG FLIGHT
// TOTAL counts every event recorded, as on a node, also once the
// Monitor's ring has wrapped.
func TestFlightDumpWithoutPrimary(t *testing.T) {
	d := start(t, nil)
	c := dial(t, d)
	for _, sh := range d.cluster.Shards() {
		for _, n := range sh.Nodes() {
			n.Freeze()
		}
	}
	for range 6 {
		d.monitor.Tick()
	}
	begin := time.Now()
	dump := c.must(t, "DEBUG", "FLIGHT", "DUMP").Text()
	if !strings.Contains(dump, "has no primary") {
		t.Fatalf("DEBUG FLIGHT DUMP shows no primaryless alarm:\n%s", dump)
	}
	if took := time.Since(begin); took > time.Second {
		t.Errorf("DEBUG FLIGHT DUMP took %v with no primary", took)
	}
	for range 6 * 600 {
		d.monitor.Tick()
	}
	total := c.must(t, "DEBUG", "FLIGHT", "TOTAL").Int
	if held := len(d.cluster.MergedTimeline()); total < 600 || total <= int64(held) {
		t.Errorf("DEBUG FLIGHT TOTAL = %d after 600 alarms, with %d events held", total, held)
	}
}

// TestFailedRehearsalInFlightDump: a corrupt full fails its restore
// rehearsal, and the alarm is on the timeline DEBUG FLIGHT DUMP renders.
func TestFailedRehearsalInFlightDump(t *testing.T) {
	d := start(t, func(o *options) { o.faultSpec, o.deltaInterval = "snapshot.build=corrupt", 4 })
	c := dial(t, d)
	for i := 0; i < 32; i++ {
		c.must(t, "SET", "k"+strconv.Itoa(i), "v")
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		dump := c.must(t, "DEBUG", "FLIGHT", "DUMP").Text()
		if strings.Contains(dump, "verification failed") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no failed rehearsal in DEBUG FLIGHT DUMP:\n%s", dump)
		}
	}
}

// TestInfoAndMetricsCoverEveryNode: the endpoint's INFO has a # Latency
// section with stage lines, and /metrics carries every node's series.
func TestInfoAndMetricsCoverEveryNode(t *testing.T) {
	d := start(t, func(o *options) { o.shards = 2 })
	c := dial(t, d)
	c.must(t, "SET", "a", "1")
	c.must(t, "SET", "b", "2")
	info := c.must(t, "INFO").Text()
	_, latency, _ := strings.Cut(info, "# Latency\r\n")
	if !strings.HasPrefix(latency, "stage_") {
		t.Fatalf("INFO has no # Latency lines:\n%s", info)
	}
	text := metrics(d)
	for _, sh := range d.cluster.Shards() {
		for _, n := range sh.Nodes() {
			if !strings.Contains(text, fmt.Sprintf("node=%q", n.ID())) {
				t.Errorf("/metrics has no series of %s", n.ID())
			}
		}
	}
}

// TestCrashPromotesReplica: a one-shot crash in the primary's flush, after
// its entry commits and before it answers, freezes the primary; the
// replica takes the shard over, and every acknowledged write survives. In
// -mode=redis a crash before the flush appends loses the write the crashed
// turn already acknowledged.
func TestCrashPromotesReplica(t *testing.T) {
	for _, tc := range []struct {
		mode, spec string
		// durable is how many writes the crash leaves on the log; on the
		// Redis rule (lossy) the crashed turn's writes were acknowledged
		// too.
		durable int
		lossy   bool
	}{
		{"memorydb", "core.flush.post=crash@20", 20, false},
		{"redis", "core.flush.pre=crash@20", 20, true},
	} {
		// Each node's registry arms the spec on its own: the replica would
		// crash at its own 21st flush once it leads, and it leads for one.
		d := start(t, func(o *options) { o.mode, o.faultSpec = tc.mode, tc.spec })
		sh := d.cluster.Shards()[0]
		p, ok := sh.Primary()
		if !ok {
			t.Fatal("no primary")
		}
		c := dial(t, d)
		acked := make(chan int)
		go func() {
			i := 0
			for ; ; i++ {
				if v, err := c.do("SET", "k"+strconv.Itoa(i), "v"+strconv.Itoa(i)); err != nil || v.IsError() {
					break
				}
			}
			acked <- i
		}()
		deadline := time.After(10 * time.Second)
		for changed := p.Changed(); !p.Frozen(); changed = p.Changed() {
			select {
			case <-changed:
			case <-deadline:
				t.Fatalf("%s: the primary never crashed", tc.mode)
			}
		}
		next, err := sh.WaitForPrimary(d.cluster.Clock(), 10*time.Second)
		if err != nil || next == p {
			t.Fatalf("%s: no replica took over: %v", tc.mode, err)
		}
		c.nc.Close()
		n := <-acked
		if n < tc.durable || (n > tc.durable) != tc.lossy {
			t.Errorf("%s: %d writes acknowledged before the crash, %d durable", tc.mode, n, tc.durable)
		}
		r := dial(t, d)
		for i := 0; i < n; i++ {
			v := r.must(t, "GET", "k"+strconv.Itoa(i))
			if want := "v" + strconv.Itoa(i); i < tc.durable && v.Text() != want {
				t.Fatalf("%s: acknowledged write k%d lost: GET = %v", tc.mode, i, v)
			} else if i >= tc.durable && !v.Null {
				t.Fatalf("%s: k%d, acknowledged in the crashed turn, survived: GET = %v", tc.mode, i, v)
			}
		}
		r.must(t, "SET", "after", "failover")
	}
}

// TestDefaultSnapshotsTrim: with the default snapshot flags and small
// segments, a SET soak gets a verified full that trims the log behind it;
// with -delta-interval 0 nothing trims.
func TestDefaultSnapshotsTrim(t *testing.T) {
	for _, deltaInterval := range []int{flagDefaults.deltaInterval, 0} {
		d := start(t, func(o *options) { o.segmentBytes, o.deltaInterval = 2048, deltaInterval })
		c := dial(t, d)
		trimmed := func() (n int64) {
			for _, line := range strings.Split(metrics(d), "\n") {
				if strings.HasPrefix(line, "memorydb_log_segments_trimmed_total{") {
					v, _ := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
					n = max(n, v)
				}
			}
			return n
		}
		for i := 0; i < 800; i++ {
			c.must(t, "SET", "k"+strconv.Itoa(i%100), strconv.Itoa(i))
		}
		if deltaInterval == 0 {
			if n := trimmed(); n != 0 {
				t.Errorf("-delta-interval 0: %d segments trimmed", n)
			}
			continue
		}
		for deadline := time.Now().Add(10 * time.Second); trimmed() == 0; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("default snapshot flags: the soak trimmed no segment")
			}
		}
	}
}

// signalNames returns the sorted INFO field names of d's first primary
// and the memorydb_* family names on d's /metrics. Per-command and
// per-entry lines (cmdstat_*, slowlog_entry_*) name data, not signals,
// and are left out.
func signalNames(t *testing.T, d *deployment) []string {
	t.Helper()
	c := dial(t, d)
	c.must(t, "SET", "a", "1")
	c.must(t, "GET", "a")
	var names []string
	for _, line := range strings.Split(c.must(t, "INFO").Text(), "\r\n") {
		name, _, ok := strings.Cut(line, ":")
		if ok && !strings.HasPrefix(name, "cmdstat_") && !strings.HasPrefix(name, "slowlog_entry_") {
			names = append(names, name)
		}
	}
	for _, line := range strings.Split(metrics(d), "\n") {
		if family, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, strings.Fields(family)[0])
		}
	}
	sort.Strings(names)
	return slices.Compact(names)
}

// TestSignalNamesKeepGolden: every INFO field and /metrics family a
// primary with snapshots and tracing on showed before INFO and /metrics
// were read off one list of node signals is still there. The only names
// added are the signals that were on one surface and are now on both.
func TestSignalNamesKeepGolden(t *testing.T) {
	d := start(t, func(o *options) { o.traceSample = 1 })
	got := signalNames(t, d)
	raw, err := os.ReadFile("testdata/signal_names.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Fields(string(raw))
	for _, name := range golden {
		if _, found := slices.BinarySearch(got, name); !found {
			t.Errorf("%s is gone", name)
		}
	}
	var added []string
	for _, name := range got {
		if _, found := slices.BinarySearch(golden, name); !found {
			added = append(added, name)
		}
	}
	// INFO gains the counters only /metrics had, and /metrics the one
	// only INFO had.
	moved := []string{
		"appends_failed", "flight_events_recorded", "memorydb_log_degraded_appends_total",
		"snapshot_restores", "trace_spans_recorded", "trace_traces_sampled",
	}
	if !slices.Equal(added, moved) {
		t.Errorf("names added %v, want %v", added, moved)
	}
}

// serveConns counts the goroutines serving a connection.
func serveConns() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*Server).serveConn(")
}

// TestHangupOnFrozenPrimaryFreesConnection: a write is in flight when its
// primary crash-freezes, and the client hangs up. The Monitor's next tick
// replaces the frozen node, the write's waiter fails (an error, never an
// acknowledgement), and the connection's goroutine ends instead of staying
// parked on a node that will never answer.
func TestHangupOnFrozenPrimaryFreesConnection(t *testing.T) {
	d := start(t, func(o *options) { o.faultSpec = "core.flush.post=crash@0" })
	p, ok := d.cluster.Shards()[0].Primary()
	if !ok {
		t.Fatal("no primary")
	}
	before := serveConns()
	c := dial(t, d)
	acked := make(chan bool, 1)
	go func() {
		v, err := c.do("SET", "k", "v")
		acked <- err == nil && v.Text() == "OK"
	}()
	deadline := time.After(10 * time.Second)
	for changed := p.Changed(); !p.Frozen(); changed = p.Changed() {
		select {
		case <-changed:
		case <-deadline:
			t.Fatal("the primary never crashed")
		}
	}
	c.nc.Close()
	if <-acked {
		t.Fatal("a write to a crash-frozen primary was acknowledged")
	}
	d.monitor.Tick()
	for end := time.Now().Add(5 * time.Second); serveConns() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d connection goroutines outlive their hung-up client", serveConns()-before)
		}
	}
}
