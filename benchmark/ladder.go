package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/engine"
	"memorydb/internal/obs"
	"memorydb/internal/resp"
	"memorydb/internal/s3"
	"memorydb/internal/server"
	"memorydb/internal/snapshot"
	"memorydb/internal/tracker"
	"memorydb/internal/txlog"
)

// ladderKeys is the dataset of every rung that needs one: small enough
// to load in milliseconds, large enough that no rung runs from one cache
// line.
const ladderKeys = 20_000

// ladder replays one seeded command stream, from one goroutine, into
// each layer's public entry point, one rung per layer. A rung is a batch
// of calls timed as a whole — one span per batch — and reported as the
// median batch's time per call, so the rungs can be added and subtracted
// like the layers they stand for.
type ladder struct {
	spans *spanBuf
	out   map[string]float64
	gets  [][][]byte // argv of the stream's GETs
	sets  [][][]byte // argv of the stream's SETs
	val   []byte
}

// constBackend answers every command with the same reply: what is left
// of a round trip through server.Server is the front-end alone.
type constBackend struct{ reply resp.Value }

func (b constBackend) Do(context.Context, [][]byte, server.ReadMode) (resp.Value, error) {
	return b.reply, nil
}

func (b constBackend) DoBatch(context.Context, [][][]byte, server.ReadMode) (resp.Value, error) {
	return b.reply, nil
}

// rung runs batch reps times, records a span for each and stores the
// median time per call under name.
func (l *ladder) rung(name string, unit time.Duration, reps, calls int, batch func() error) error {
	per := make([]float64, reps)
	for i := range per {
		begin := l.spans.now()
		if err := batch(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		end := l.spans.now()
		l.spans.add("ladder."+name, 0, uint32(i), begin, end)
		per[i] = float64(end-begin) / float64(calls) / float64(unit)
	}
	l.out[name] = median(per)
	return nil
}

func runLadder(seed int64, spans *spanBuf) (map[string]float64, error) {
	l := &ladder{spans: spans, out: map[string]float64{}}
	g := newGen(seed, 1<<20)
	ks := newKeyspace(ladderKeys)
	for i := 0; i < ladderKeys; i++ {
		k := ks.pick(g, 0, 1)
		l.gets = append(l.gets, [][]byte{cmdGET, appendKey(nil, k)})
		l.sets = append(l.sets, [][]byte{cmdSET, appendKey(nil, k), appendValue(nil, k, 1)})
	}
	l.val = appendValue(nil, 0, 0)
	for _, step := range []func() error{l.resp, l.server, l.engine, l.tracker, l.txlog, l.core, l.builder, l.obs} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	o := l.out
	o["core.self_get_ns"] = o["core.get_ns"] - o["engine.get_ns"]
	o["core.self_set_ns"] = o["core.set_ns"] - o["engine.set_ns"] - o["txlog.append_ns"] - o["tracker.write_commit_ns"]
	o["server.self_rtt_us"] = o["server.stub_rtt_us"] - (o["resp.parse_ns"]+o["resp.write_ns"])/1e3
	return o, nil
}

func (l *ladder) resp() error {
	var wire bytes.Buffer
	w := resp.NewWriter(&wire)
	for i := range l.gets {
		if err := w.WriteCommand(l.gets[i]...); err != nil {
			return err
		}
		if err := w.WriteCommand(l.sets[i]...); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	calls := 2 * len(l.gets)
	if err := l.rung("resp.parse_ns", time.Nanosecond, 5, calls, func() error {
		r := resp.NewReader(bytes.NewReader(wire.Bytes()))
		for i := 0; i < calls; i++ {
			if _, err := r.ReadCommand(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	discard := resp.NewWriter(io.Discard)
	reply := resp.Bulk(l.val)
	return l.rung("resp.write_ns", time.Nanosecond, 5, calls, func() error {
		for i := 0; i < calls; i++ {
			if err := discard.WriteValue(reply); err != nil {
				return err
			}
			if err := discard.Flush(); err != nil {
				return err
			}
		}
		return nil
	})
}

// server measures TCP through server.Server around a constant reply: at
// depth 1 the median round trip, at depth 32 the time per command.
func (l *ladder) server() error {
	srv := server.New(server.Config{Addr: "127.0.0.1:0", Backend: constBackend{resp.Bulk(l.val)}, Multiplex: true})
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	c, err := dial(srv.Addr())
	if err != nil {
		return err
	}
	defer c.close()
	// Timed by hand: this rung is set against a median latency, so it is
	// the median round trip and not the batch's mean.
	rtt := make([]int64, 0, len(l.gets))
	batchBegin := l.spans.now()
	for _, argv := range l.gets {
		begin := time.Now()
		if _, err := c.do(argv...); err != nil {
			return fmt.Errorf("server.stub_rtt_us: %w", err)
		}
		rtt = append(rtt, int64(time.Since(begin)))
	}
	l.spans.add("ladder.server.stub_rtt_us", 0, 0, batchBegin, l.spans.now())
	sort.Slice(rtt, func(i, j int) bool { return rtt[i] < rtt[j] })
	l.out["server.stub_rtt_us"] = float64(percentile(rtt, 0.50)) / 1e3

	const depth = 32
	calls := len(l.gets) / depth * depth
	return l.rung("server.stub_pipelined_ns", time.Nanosecond, 3, calls, func() error {
		for first := 0; first < calls; first += depth {
			for _, argv := range l.gets[first : first+depth] {
				if err := c.send(argv...); err != nil {
					return err
				}
			}
			if err := c.flush(); err != nil {
				return err
			}
			for i := 0; i < depth; i++ {
				if _, err := c.recv(); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func (l *ladder) engine() error {
	eng := engine.New(clock.NewReal())
	for _, argv := range l.sets {
		eng.Exec(argv)
	}
	exec := func(cmds [][][]byte) func() error {
		return func() error {
			for _, argv := range cmds {
				if r := eng.Exec(argv); r.Reply.IsError() {
					return fmt.Errorf("%s: %s", argv[0], r.Reply.Text())
				}
			}
			return nil
		}
	}
	if err := l.rung("engine.get_ns", time.Nanosecond, 5, len(l.gets), exec(l.gets)); err != nil {
		return err
	}
	return l.rung("engine.set_ns", time.Nanosecond, 5, len(l.sets), exec(l.sets))
}

func (l *ladder) tracker() error {
	trk := tracker.New(0)
	var seq uint64
	keys := make([][]string, len(l.sets))
	for i, argv := range l.sets {
		keys[i] = []string{string(argv[1])}
	}
	delivered := 0
	deliver := func(bool) { delivered++ }
	return l.rung("tracker.write_commit_ns", time.Nanosecond, 5, len(keys), func() error {
		for _, k := range keys {
			seq++
			trk.RegisterWrite(seq, k, deliver)
			trk.Commit(seq)
		}
		if delivered != int(seq) {
			return fmt.Errorf("%d of %d gated replies delivered", delivered, seq)
		}
		return nil
	})
}

// txlog appends the stream's SET effects one entry at a time against a
// zero-latency quorum, then reads them back through a tailing reader.
func (l *ladder) txlog() error {
	log, err := txlog.NewService(txlog.Config{}).CreateLog(shardID)
	if err != nil {
		return err
	}
	payloads := make([][]byte, len(l.sets))
	for i, argv := range l.sets {
		payloads[i] = resp.EncodeCommand(argv...)
	}
	ctx := context.Background()
	tail := txlog.ZeroID
	if err := l.rung("txlog.append_ns", time.Nanosecond, 3, len(payloads), func() error {
		for _, p := range payloads {
			if tail, err = log.Append(ctx, tail, txlog.Entry{Type: txlog.EntryData, Records: 1, Payload: p}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	r := log.NewReader(txlog.ZeroID)
	return l.rung("txlog.read_ns", time.Nanosecond, 3, len(payloads), func() error {
		for range payloads {
			if _, ok, err := r.TryNext(); err != nil || !ok {
				return fmt.Errorf("reader stopped at %v: %v", r.Position(), err)
			}
		}
		return nil
	})
}

// core calls Node.Do in-process on a stack of its own: the node's whole
// path — route, queue, execute, group commit, append, release — with no
// socket in front of it.
func (l *ladder) core() error {
	st, err := startStack(nil)
	if err != nil {
		return err
	}
	defer st.stop()
	if err := prefill(st, newKeyspace(ladderKeys)); err != nil {
		return err
	}
	ctx := context.Background()
	do := func(cmds [][][]byte) func() error {
		return func() error {
			for _, argv := range cmds {
				if v, err := st.primary.node.Do(ctx, argv); err != nil || v.IsError() {
					return fmt.Errorf("%s: reply %v, error %v", argv[0], v, err)
				}
			}
			return nil
		}
	}
	if err := l.rung("core.get_ns", time.Nanosecond, 3, len(l.gets), do(l.gets)); err != nil {
		return err
	}
	return l.rung("core.set_ns", time.Nanosecond, 3, len(l.sets), do(l.sets))
}

// builder times one forkless-snapshot pass that finds ladderKeys dirty
// keys behind it and emits them as a delta.
func (l *ladder) builder() error {
	log, err := txlog.NewService(txlog.Config{}).CreateLog(shardID)
	if err != nil {
		return err
	}
	ctx := context.Background()
	tail := txlog.ZeroID
	// dirty appends one version of every key, 500 records to an entry.
	dirty := func(version uint32) error {
		for first := 0; first < ladderKeys; first += prefillBatch {
			var payload []byte
			for k := first; k < first+prefillBatch; k++ {
				payload = append(payload, resp.EncodeCommand(cmdSET, appendKey(nil, k), appendValue(nil, k, version))...)
			}
			if tail, err = log.Append(ctx, tail, txlog.Entry{Type: txlog.EntryData, Records: prefillBatch, Payload: payload}); err != nil {
				return err
			}
		}
		return nil
	}
	snaps := snapshot.NewManager(s3.New(), "snapshots")
	b := &snapshot.Builder{Manager: snaps, Log: log, ShardID: shardID, EngineVersion: 1, DeltaInterval: 1}
	if err := dirty(0); err != nil {
		return err
	}
	if err := b.Tick(ctx); err != nil { // the chain's base: a full snapshot
		return err
	}
	// Timed by hand: only the pass is the rung, not making the keys dirty.
	per := make([]float64, 3)
	for i := range per {
		if err := dirty(uint32(i + 1)); err != nil {
			return err
		}
		begin := l.spans.now()
		if err := b.Tick(ctx); err != nil {
			return err
		}
		end := l.spans.now()
		l.spans.add("ladder.snapshot.builder_tick_ms", 0, uint32(i), begin, end)
		if got := b.Stats().DeltasSinceFull; got != i+1 {
			return fmt.Errorf("snapshot.builder_tick_ms: pass %d emitted no delta (chain holds %d)", i+1, got)
		}
		per[i] = float64(end-begin) / 1e6
	}
	l.out["snapshot.builder_tick_ms"] = median(per)
	return nil
}

func (l *ladder) obs() error {
	m := obs.New(obs.Options{})
	const calls = 200_000
	argv := l.gets[0]
	return l.rung("obs.record_ns", time.Nanosecond, 5, calls, func() error {
		for i := 0; i < calls; i++ {
			m.FinishCommand("GET", argv, 20_000, 2_000, 1_000, 0)
		}
		return nil
	})
}
