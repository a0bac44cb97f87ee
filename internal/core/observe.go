package core

import (
	"fmt"
	"strings"
	"time"

	"memorydb/internal/obs"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// This file is the node side of the observability layer: stage-stamp
// bookkeeping for tasks, the node's signals (INFO's # Stats, # GroupCommit
// and # Robustness, and their Prometheus export), and the INFO sections
// # Latency, # Commandstats and # Slowlog.
//
// Stage stamps live on the task (enq/deq/execDone, obs.Now monotonic
// nanos, 0 = unset) and on the issued entry (sequencer.go); Node.stage
// records each interval.
// Everything here is gated on n.obs != nil so NoObs nodes pay one
// pointer check per site.

// obsFinish runs as a stamped task's reply is delivered: it computes
// the end-to-end span and the queue/execute breakdown and hands them to
// the registry (e2e + per-command histograms, slowlog check).
func (n *Node) obsFinish(t *task) {
	now := obs.Now()
	total := now - t.enq
	var queue, exec int64
	if t.deq != 0 {
		queue = t.deq - t.enq
	}
	if t.execDone != 0 && t.deq != 0 {
		exec = t.execDone - t.deq
	}
	n.obs.FinishCommand(t.name, t.argv, total, queue, exec, 0)
}

// obsDequeued stamps a client task's dequeue and records its queue wait.
func (n *Node) obsDequeued(t *task) {
	t.deq = obs.Now()
	n.stage(obs.StageQueueWait, t.tr.ctx(), 0, t.enq, t.deq)
}

// obsExecuted stamps engine-execution completion.
func (n *Node) obsExecuted(t *task) {
	t.execDone = obs.Now()
	n.stage(obs.StageExecute, t.tr.ctx(), 0, t.deq, t.execDone)
}

// stage records one stage interval, from and to in obs.Now nanos, into the
// stage's histogram and — under a traced command's parent context — as
// the span named after the stage. id is the span's pre-allocated ID, 0 for
// a fresh one.
func (n *Node) stage(s obs.Stage, parent trace.SpanContext, id uint64, from, to int64) {
	n.obs.Stage(s).ObserveNanos(to - from)
	if parent.TraceID == 0 {
		return
	}
	if id == 0 {
		id = n.trace.NewSpanID()
	}
	n.trace.EmitWithID(id, parent, s.String(), n.cfg.NodeID, from, to)
}

// The INFO sections whose lines are node signals.
const (
	secStats       = "Stats"
	secGroupCommit = "GroupCommit"
	secRobustness  = "Robustness"
)

// signalKind is how /metrics types a signal.
type signalKind uint8

const (
	counter signalKind = iota
	gauge
)

// signal is one node signal, and its row is the one place its name is
// written: INFO shows it as name:value in its section, /metrics as
// memorydb_<name>, a counter's with _total appended unless the name
// already ends in it.
type signal struct {
	section, name string
	kind          signalKind
	read          func() int64
}

// newSignals lists the node's signals in INFO order: the Stats counters,
// the log's segment chain, the shard's snapshot builder, tracing and the
// flight ring, and the run queue. What is not one number (role, epoch,
// positions, log_degraded, the mean batch size, the keyspace) infoText
// writes by hand.
func (n *Node) newSignals() []signal {
	st, lg := &n.stats, n.cfg.Log
	seg := func(f func(txlog.SegmentStats) int64) func() int64 {
		return func() int64 { return f(lg.SegmentStats()) }
	}
	sigs := []signal{
		{secStats, "commands", counter, st.Commands.Load},
		{secStats, "mutations", counter, st.Mutations.Load},
		{secStats, "gated_reads", counter, st.GatedReads.Load},
		{secStats, "entries_applied", counter, st.EntriesApplied.Load},
		{secStats, "snapshot_restores", counter, st.SnapshotRestores.Load},
		{secStats, "promotions", counter, st.Promotions.Load},
		{secStats, "demotions", counter, st.Demotions.Load},
		{secStats, "flight_events_recorded", counter, func() int64 { return int64(n.flight.Total()) }},
		{secGroupCommit, "batch_flushes", counter, st.BatchFlushes.Load},
		{secGroupCommit, "batched_records", counter, st.BatchedRecords.Load},
		{secRobustness, "appends_retried", counter, st.AppendsRetried.Load},
		{secRobustness, "appends_failed", counter, st.AppendsFailed.Load},
		{secRobustness, "renewals_retried", counter, st.RenewalsRetried.Load},
		{secRobustness, "degraded_millis", counter, st.DegradedMillis.Load},
		{secRobustness, "log_degraded_appends", counter, func() int64 { return lg.Stats().DegradedAppends }},
		{secRobustness, "torn_snapshots_detected", counter, st.TornSnapshotsDetected.Load},
		{secRobustness, "reader_rebootstraps", counter, st.ReaderRebootstraps.Load},
		{secRobustness, "log_gap_retries", counter, st.LogGapRetries.Load},
		{secRobustness, "replica_reads_served", counter, st.ReplicaReadsServed.Load},
		{secRobustness, "replica_reads_stale", counter, st.ReplicaReadsStale.Load},
		{secRobustness, "replica_reads_redirected", counter, st.ReplicaReadsRedirected.Load},
		{secRobustness, "replica_read_watermarks_fenced", counter, st.WatermarksFenced.Load},
		{secRobustness, "log_segments_live", gauge, seg(func(s txlog.SegmentStats) int64 { return int64(s.LiveSegments) })},
		{secRobustness, "log_bytes_live", gauge, seg(func(s txlog.SegmentStats) int64 { return s.LiveBytes })},
		{secRobustness, "log_segments_sealed_total", counter, seg(func(s txlog.SegmentStats) int64 { return s.Sealed })},
		{secRobustness, "log_segments_trimmed_total", counter, seg(func(s txlog.SegmentStats) int64 { return s.Trimmed })},
		{secRobustness, "log_segments_quarantined_total", counter, seg(func(s txlog.SegmentStats) int64 { return s.Quarantined })},
	}
	if snaps := n.cfg.Snapshots; snaps != nil {
		// The health block of this shard's builder, read off the manager.
		h := snaps.Health(n.cfg.ShardID)
		sigs = append(sigs,
			signal{secRobustness, "snapshot_builder_lag_entries", gauge, h.LagEntries.Load},
			signal{secRobustness, "snapshot_deltas_emitted_total", counter, h.DeltasEmitted.Load},
			signal{secRobustness, "snapshot_compactions_total", counter, h.Compactions.Load},
			signal{secRobustness, "snapshot_chain_depth", gauge, h.ChainDepth.Load},
			signal{secRobustness, "snapshot_builder_lag_alarms_total", counter, h.LagAlarms.Load})
	}
	if n.trace != nil {
		sigs = append(sigs,
			signal{secStats, "trace_traces_sampled", counter, n.trace.SampledCount},
			signal{secStats, "trace_spans_recorded", counter, n.trace.SpanCount})
	}
	return append(sigs,
		signal{secRobustness, "barrier_ops", counter, st.BarrierOps.Load},
		// Queued inputs, as QueueDepth counts them: runs, not commands.
		signal{secRobustness, "queue_depth", gauge, func() int64 { return int64(n.QueueDepth()) }})
}

// registerCounters exposes every node signal through the registry,
// labelled with the node ID so a shared registry keeps nodes apart.
func (n *Node) registerCounters() {
	label := n.obsLabel()
	for _, s := range n.signals {
		if s.kind == gauge {
			n.obs.RegisterGauge(s.name, label, s.read)
		} else {
			n.obs.RegisterCounter(s.name, label, s.read)
		}
	}
}

// infoSignals renders an INFO section's header and its signals, in list
// order.
func (n *Node) infoSignals(b *strings.Builder, section string) {
	fmt.Fprintf(b, "# %s\r\n", section)
	for _, s := range n.signals {
		if s.section == section {
			fmt.Fprintf(b, "%s:%d\r\n", s.name, s.read())
		}
	}
}

// obsLabel is the label of every series the node registers; Stop
// unregisters it.
func (n *Node) obsLabel() string { return fmt.Sprintf("node=%q", n.cfg.NodeID) }

// usec rounds up, so any recorded sub-microsecond stage reports as 1µs
// rather than vanishing to 0 in INFO (a stage that ran is never "free").
func usec(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64((d + time.Microsecond - 1) / time.Microsecond)
}

// obsInfoSections renders # Latency, # Commandstats and # Slowlog for
// INFO. Returns "" when instrumentation is off.
func (n *Node) obsInfoSections() string {
	if n.obs == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Latency\r\n")
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		h := n.obs.Stage(s)
		q := h.Quantiles()
		fmt.Fprintf(&b, "stage_%s:count=%d,p50_usec=%d,p95_usec=%d,p99_usec=%d,p999_usec=%d,max_usec=%d\r\n",
			s, h.Count(), usec(q.P50), usec(q.P95), usec(q.P99), usec(q.P999), usec(q.Max))
	}
	fmt.Fprintf(&b, "# Commandstats\r\n")
	n.obs.EachCommand(func(name string, h *obs.Histogram) {
		q := h.Quantiles()
		fmt.Fprintf(&b, "cmdstat_%s:calls=%d,p50_usec=%d,p99_usec=%d,max_usec=%d\r\n",
			strings.ToLower(name), h.Count(), usec(q.P50), usec(q.P99), usec(q.Max))
	})
	fmt.Fprintf(&b, "# Slowlog\r\n")
	sl := n.obs.Slow
	fmt.Fprintf(&b, "slowlog_threshold_usec:%d\r\n", usec(sl.Threshold()))
	fmt.Fprintf(&b, "slowlog_total:%d\r\n", sl.Total())
	fmt.Fprintf(&b, "slowlog_len:%d\r\n", sl.Len())
	for i, e := range sl.Recent(8) {
		fmt.Fprintf(&b, "slowlog_entry_%d:id=%d,cmd=%s,usec=%d,queue_usec=%d,exec_usec=%d,commit_usec=%d\r\n",
			i, e.ID, e.Cmd, usec(e.Total), usec(e.Queue), usec(e.Exec), usec(e.Commit))
	}
	return b.String()
}
