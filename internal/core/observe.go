package core

import (
	"fmt"
	"strings"
	"time"

	"memorydb/internal/obs"
	"memorydb/internal/trace"
)

// This file is the node side of the observability layer: stage-stamp
// bookkeeping for tasks, counter registration for Prometheus export,
// and the INFO sections (# Latency, # Commandstats, # Slowlog).
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

// registerCounters exposes every Stats field (plus log-service counters)
// through the registry so /metrics covers the pre-existing counter
// surface. Labels carry the node ID so shared registries keep nodes
// distinguishable.
func (n *Node) registerCounters() {
	label := n.obsLabel()
	reg := func(name string, v interface{ Load() int64 }) {
		n.obs.RegisterCounter(name, label, v.Load)
	}
	reg("commands", &n.stats.Commands)
	reg("mutations", &n.stats.Mutations)
	reg("gated_reads", &n.stats.GatedReads)
	reg("appends_failed", &n.stats.AppendsFailed)
	reg("demotions", &n.stats.Demotions)
	reg("promotions", &n.stats.Promotions)
	reg("entries_applied", &n.stats.EntriesApplied)
	reg("snapshot_restores", &n.stats.SnapshotRestores)
	reg("batch_flushes", &n.stats.BatchFlushes)
	reg("batched_records", &n.stats.BatchedRecords)
	reg("appends_retried", &n.stats.AppendsRetried)
	reg("renewals_retried", &n.stats.RenewalsRetried)
	reg("degraded_millis", &n.stats.DegradedMillis)
	reg("torn_snapshots_detected", &n.stats.TornSnapshotsDetected)
	reg("reader_rebootstraps", &n.stats.ReaderRebootstraps)
	reg("log_gap_retries", &n.stats.LogGapRetries)
	reg("barrier_ops", &n.stats.BarrierOps)
	reg("replica_reads_served", &n.stats.ReplicaReadsServed)
	reg("replica_reads_stale", &n.stats.ReplicaReadsStale)
	reg("replica_reads_redirected", &n.stats.ReplicaReadsRedirected)
	reg("replica_read_watermarks_fenced", &n.stats.WatermarksFenced)
	// Segmented-log health: live footprint gauges plus lifecycle counters,
	// sampled straight from the shared log's segment chain.
	n.obs.RegisterGauge("log_segments_live", label, func() int64 {
		return int64(n.cfg.Log.SegmentStats().LiveSegments)
	})
	n.obs.RegisterGauge("log_bytes_live", label, func() int64 {
		return n.cfg.Log.SegmentStats().LiveBytes
	})
	n.obs.RegisterCounter("log_segments_sealed", label, func() int64 {
		return n.cfg.Log.SegmentStats().Sealed
	})
	n.obs.RegisterCounter("log_segments_trimmed", label, func() int64 {
		return n.cfg.Log.SegmentStats().Trimmed
	})
	n.obs.RegisterCounter("log_segments_quarantined", label, func() int64 {
		return n.cfg.Log.SegmentStats().Quarantined
	})
	// Forkless snapshot builder health, read off the shared manager: lag
	// behind the committed tail, chain production counters, and the
	// lag-exceeded-trim-horizon alarm count.
	if snaps := n.cfg.Snapshots; snaps != nil {
		h := snaps.Health()
		n.obs.RegisterGauge("snapshot_builder_lag_entries", label, h.LagEntries.Load)
		n.obs.RegisterCounter("snapshot_deltas_emitted_total", label, h.DeltasEmitted.Load)
		n.obs.RegisterCounter("snapshot_compactions_total", label, h.Compactions.Load)
		n.obs.RegisterGauge("snapshot_chain_depth", label, h.ChainDepth.Load)
		n.obs.RegisterCounter("snapshot_builder_lag_alarms_total", label, h.LagAlarms.Load)
	}
	// Tracing/flight health: span volume plus the black box's write count.
	if n.trace != nil {
		n.obs.RegisterCounter("trace_traces_sampled", label, n.trace.SampledCount)
		n.obs.RegisterCounter("trace_spans_recorded", label, n.trace.SpanCount)
	}
	n.obs.RegisterCounter("flight_events_recorded", label, func() int64 {
		return int64(n.flight.Total())
	})
	// Queued inputs, as QueueDepth counts them: runs, not commands.
	n.obs.RegisterGauge("queue_depth", label, func() int64 {
		return int64(n.QueueDepth())
	})
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
