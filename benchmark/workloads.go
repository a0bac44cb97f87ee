package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"memorydb/internal/netsim"
	"memorydb/internal/resp"
)

// workload is one traffic mix. ops is the operation count of a 10-second
// run at the speed the program had when the benchmark was defined; a run
// of --seconds S issues ops×S/10, so the count — and with it the log
// length, the heap growth and every counter — is the same on every run
// and on both sides of a comparison.
type workload struct {
	name   string
	why    string
	ops    int
	conns  int // connections = load goroutines
	depth  int // commands written before the first reply is read
	commit netsim.LatencyModel
	op     func(w *worker) // one operation (depth 1) or one pipeline (depth > 1)
	writes bool
	// timed marks a workload that waits on a timer (the commit latency,
	// the replica's poll): what the program does per second, such as lease
	// renewals, then shows in its per-operation counts.
	timed bool
	// stretches is how many equal stretches of time a measured window is
	// cut into; each timing metric comes from the quiet ones (see
	// quietStretches). A stretch must hold its share of the program's
	// periodic work, or ranking them picks the ones that dodged it: the
	// CPU-bound workloads collect garbage seven or eight times in a window,
	// and a pipeline's latencies ramp over its 80 ms, so those get five
	// stretches of about 2 s. replica_ryw mostly sleeps between the
	// replica's 1 ms polls, so its tail is the sandbox's doing wherever it
	// is not the poll's, and that comes in bursts shorter than 2 s: forty
	// stretches of about 250 ms (142 pairs each, so the quiet ten still put
	// 14 samples beyond p99) find the time between the bursts.
	stretches int
}

var workloads = []workload{
	{
		name: "get", ops: 500_000, conns: 2, depth: 1, stretches: 5, op: (*worker).get,
		why: "uniform GETs at depth 1: socket, resp, server mux hand-offs and the core read path; the log does nothing",
	},
	{
		name: "set", ops: 300_000, conns: 2, depth: 1, stretches: 5, op: (*worker).set, writes: true,
		why: "uniform SETs at depth 1 with zero commit latency: the CPU cost of the durable write path with no sleep to hide it",
	},
	{
		name: "ingest_pipelined", ops: 8_192, conns: 2, depth: 32, stretches: 5, op: (*worker).ingest, writes: true, timed: true,
		commit: netsim.Fixed(2 * time.Millisecond),
		why:    "SET pipelines of depth 32 against a 2ms multi-AZ commit: overlap, flush coalescing and group commit decide it, CPU cost does not",
	},
	{
		name: "replica_ryw", ops: 6_000, conns: 1, depth: 1, stretches: 40, op: (*worker).readYourWrite, writes: true, timed: true,
		why: "SET on the primary then a linearizable GET on a replica: the replica tailer's poll and the read gate's park are most of the time",
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// opsFor scales the operation count to the run length, keeping it a
// whole number of pipelines per connection.
func (wl *workload) opsFor(seconds int) int {
	unit := wl.conns * wl.depth
	return max(wl.ops*seconds/10/unit, 20) * unit
}

var (
	cmdGET = []byte("GET")
	cmdSET = []byte("SET")
)

// worker drives one connection's share of a workload: it generates the
// commands, checks every reply and times every operation.
type worker struct {
	wl  *workload
	id  int
	ks  *keyspace
	g   *gen
	c   *client // primary
	cr  *client // replica, READONLY (replica_ryw)
	key []byte
	val []byte

	epoch     time.Time // of the current pass's measured window
	recording bool
	lat, done []int64 // per recorded operation: latency, completion time since epoch (ns)
	attempted int
	failed    int
	firstFail string
	written   int // acknowledged writes

	sb    *spanBuf // nil unless tracing
	opSeq uint32
}

func (w *worker) fail(format string, args ...any) {
	w.failed++
	if w.firstFail == "" {
		w.firstFail = fmt.Sprintf(format, args...)
	}
}

func (w *worker) record(t0, t1 time.Duration) {
	if w.recording {
		w.lat = append(w.lat, int64(t1-t0))
		w.done = append(w.done, int64(t1))
	}
}

// exchange is one round trip. When tracing it records client.op and,
// under it, the three things the harness itself does: write+flush, wait
// for the first reply byte, decode.
func (w *worker) exchange(c *client, argv ...[]byte) (resp.Value, error) {
	sb := w.sb
	if sb == nil {
		return c.do(argv...)
	}
	t0 := sb.now()
	op := sb.open("client.op", 0, w.opSeq, t0)
	err := c.send(argv...)
	if err == nil {
		err = c.flush()
	}
	t1 := sb.now()
	sb.add("client.write_flush", op, w.opSeq, t0, t1)
	if err == nil {
		err = c.awaitReply()
	}
	t2 := sb.now()
	sb.add("client.wait_reply", op, w.opSeq, t1, t2)
	var v resp.Value
	if err == nil {
		v, err = c.recv()
	}
	t3 := sb.now()
	sb.add("client.decode", op, w.opSeq, t2, t3)
	sb.close(op, t3)
	return v, err
}

// nextWrite picks a key this connection owns and moves it to its next
// version; key and val then hold the SET's arguments.
func (w *worker) nextWrite() {
	k := w.ks.pick(w.g, w.id, w.wl.conns)
	w.ks.versions[k]++
	w.key = appendKey(w.key[:0], k)
	w.val = appendValue(w.val[:0], k, w.ks.versions[k])
}

func (w *worker) get() {
	k := w.ks.pick(w.g, w.id, w.wl.conns)
	w.key = appendKey(w.key[:0], k)
	t0 := time.Since(w.epoch)
	v, err := w.exchange(w.c, cmdGET, w.key)
	w.record(t0, time.Since(w.epoch))
	w.val = appendValue(w.val[:0], k, w.ks.versions[k])
	if err != nil || !isBulk(v, w.val) {
		w.fail("GET %s: reply %v, error %v", w.key, v, err)
	}
}

func (w *worker) set() {
	w.nextWrite()
	t0 := time.Since(w.epoch)
	v, err := w.exchange(w.c, cmdSET, w.key, w.val)
	w.record(t0, time.Since(w.epoch))
	if err != nil || !isOK(v) {
		w.fail("SET %s: reply %v, error %v", w.key, v, err)
		return
	}
	w.written++
}

// ingest writes one pipeline of depth SETs, flushes once and reads the
// replies. Each command is one operation, timed from the flush that sent
// it to its own reply, so the latency of the n-th command of a pipeline
// includes the n−1 the server answered before it.
func (w *worker) ingest() {
	depth := w.wl.depth
	for i := 0; i < depth; i++ {
		w.nextWrite()
		if err := w.c.send(cmdSET, w.key, w.val); err != nil {
			w.fail("pipeline write: %v", err)
		}
	}
	t0 := time.Since(w.epoch)
	err := w.c.flush()
	var batch uint32
	if w.sb != nil {
		batch = w.sb.open("client.op", 0, w.opSeq, int64(t0))
		w.sb.add("client.write_flush", batch, w.opSeq, int64(t0), w.sb.now())
	}
	for i := 0; i < depth; i++ {
		var v resp.Value
		if w.sb != nil && err == nil {
			t1 := w.sb.now()
			err = w.c.awaitReply()
			t2 := w.sb.now()
			w.sb.add("client.wait_reply", batch, w.opSeq+uint32(i), t1, t2)
			if err == nil {
				v, err = w.c.recv()
			}
			w.sb.add("client.decode", batch, w.opSeq+uint32(i), t2, w.sb.now())
		} else if err == nil {
			v, err = w.c.recv()
		}
		w.record(t0, time.Since(w.epoch))
		if err != nil || !isOK(v) {
			w.fail("pipelined SET: reply %v, error %v", v, err)
			continue
		}
		w.written++
	}
	if w.sb != nil {
		w.sb.close(batch, w.sb.now())
	}
}

// readYourWrite is the pair: SET k v acknowledged by the primary, then
// GET k on the replica connection, which must answer v — not an older
// version, and not a REDIRECT to the primary.
func (w *worker) readYourWrite() {
	w.nextWrite()
	t0 := time.Since(w.epoch)
	v, err := w.exchange(w.c, cmdSET, w.key, w.val)
	if err != nil || !isOK(v) {
		w.record(t0, time.Since(w.epoch))
		w.fail("SET %s on primary: reply %v, error %v", w.key, v, err)
		return
	}
	w.written++
	v, err = w.exchange(w.cr, cmdGET, w.key)
	w.record(t0, time.Since(w.epoch))
	if err != nil || !isBulk(v, w.val) {
		w.fail("GET %s on replica after acknowledged SET: reply %v, error %v", w.key, v, err)
	}
}

// run issues n operations.
func (w *worker) run(n int) {
	for done := 0; done < n; done += w.wl.depth {
		w.wl.op(w)
		w.attempted += w.wl.depth
		w.opSeq += uint32(w.wl.depth)
	}
}

// connect opens the workload's connections to a running stack.
func connect(st *stack, wl *workload, ks *keyspace, seed int64) ([]*worker, error) {
	workers := make([]*worker, wl.conns)
	for i := range workers {
		w := &worker{wl: wl, id: i, ks: ks, g: newGen(seed, i)}
		workers[i] = w
		var err error
		if w.c, err = dial(st.primary.srv.Addr()); err != nil {
			return nil, err
		}
		if st.replica == nil {
			continue
		}
		if w.cr, err = dial(st.replica.srv.Addr()); err != nil {
			return nil, err
		}
		if v, err := w.cr.do([]byte("READONLY")); err != nil || !isOK(v) {
			return nil, fmt.Errorf("READONLY on replica: reply %v, error %v", v, err)
		}
	}
	return workers, nil
}

func disconnect(workers []*worker) {
	for _, w := range workers {
		if w == nil {
			continue
		}
		if w.c != nil {
			w.c.close()
		}
		if w.cr != nil {
			w.cr.close()
		}
	}
}

// pass is what one measured window produced.
type pass struct {
	recorded   int
	throughput float64 // operations per second
	p50us      float64
	p99us      float64
}

// quietStretches picks, from a window's stretches ranked best first, the
// ones a metric is computed from. Noise in a shared sandbox only ever slows
// a stretch down, so the better stretches are the ones nearest the
// program's own speed: the very best is passed over, so that one lucky
// stretch — a GC cycle fewer — does not set the number, and the next
// quarter of them (at least one) is kept. Of five stretches that is the
// second best.
func quietStretches[T any](ranked []T) []T {
	if len(ranked) < 2 {
		return ranked
	}
	keep := max(len(ranked)/4, 1)
	return ranked[1:min(1+keep, len(ranked))]
}

// quietRate is the mean rate of the quiet stretches of a window.
func quietRate(rates []float64) float64 {
	ranked := sortedCopy(rates)
	slices.Reverse(ranked)
	sum := 0.0
	quiet := quietStretches(ranked)
	for _, r := range quiet {
		sum += r
	}
	return sum / float64(len(quiet))
}

// quietPercentile is the q-quantile, in µs, of the latencies of the quiet
// stretches of a window pooled together. Each stretch is sorted; one that
// completed nothing has no latency to rank and is left out.
func quietPercentile(perStretch [][]int64, q float64) float64 {
	var ranked [][]int64
	for _, lat := range perStretch {
		if len(lat) > 0 {
			ranked = append(ranked, lat)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return percentile(ranked[i], q) < percentile(ranked[j], q) })
	var pool []int64
	for _, lat := range quietStretches(ranked) {
		pool = append(pool, lat...)
	}
	slices.Sort(pool)
	return float64(percentile(pool, q)) / 1e3
}

// runPass runs ops operations over the workers: the first twentieth is
// warm-up, then every worker stops, atWindow runs (collect garbage, zero
// the histograms, read the counters), and the rest is the measured
// window.
func runPass(workers []*worker, ops int, traceEpoch time.Time, atWindow func()) pass {
	wl := workers[0].wl
	unit := wl.conns * wl.depth // every connection runs whole pipelines
	warm := (ops/20 + unit - 1) / unit * unit
	perWorker := (ops - warm) / unit * wl.depth
	var warmed, finished sync.WaitGroup
	open := make(chan struct{})
	for i, w := range workers {
		w.recording = false
		w.lat = make([]int64, 0, perWorker)
		w.done = make([]int64, 0, perWorker)
		w.epoch = time.Now()
		w.sb = nil
		if !traceEpoch.IsZero() {
			spansPerOp := 4 // client.op and its three children
			if w.cr != nil {
				spansPerOp = 8 // two round trips per pair
			}
			w.sb = newSpanBuf(traceEpoch, uint32(i)<<28, (perWorker+warm/wl.conns)*spansPerOp)
		}
		warmed.Add(1)
		finished.Add(1)
		go func(w *worker) {
			defer finished.Done()
			w.run(warm / wl.conns)
			warmed.Done()
			<-open
			w.recording = true
			w.run(perWorker)
		}(w)
	}
	warmed.Wait()
	atWindow()
	epoch := time.Now()
	for _, w := range workers {
		w.epoch = epoch
	}
	close(open)
	finished.Wait()

	var end int64
	for _, w := range workers {
		end = max(end, w.done[len(w.done)-1])
	}
	n := int64(wl.stretches)
	perStretch := make([][]int64, n)
	for _, w := range workers {
		for i, d := range w.done {
			j := min(d*n/end, n-1)
			perStretch[j] = append(perStretch[j], w.lat[i])
		}
	}
	p := pass{}
	rates := make([]float64, n)
	for i, lat := range perStretch {
		slices.Sort(lat)
		p.recorded += len(lat)
		rates[i] = float64(len(lat)) / (float64(end) / float64(n) / 1e9)
	}
	p.throughput = quietRate(rates)
	p.p50us, p.p99us = quietPercentile(perStretch, 0.50), quietPercentile(perStretch, 0.99)
	return p
}
