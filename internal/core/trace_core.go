package core

import "memorydb/internal/trace"

// This file is the node side of cross-node causal tracing: adopting (or
// minting) a span context at submit; Node.reply finishes the task's root
// span when the reply is delivered — for a mutation that is after the
// workloop answered for its entry, so the span covers the full
// submit→durable→reply interval. Stage child spans are emitted with the
// obs stage stamps (Node.stage), reusing the timestamps taken there; the
// group-commit flush stamps the context onto the txlog entry so AZ acks
// and remote replica applies join the same tree.

// taskSpan is a sampled task's tracing state. Tasks that miss the
// sampling coin carry a nil *taskSpan, so the unsampled hot path costs
// one pointer check per site.
type taskSpan struct {
	sc   trace.SpanContext // the task's node-level span; children attach here
	root trace.Span        // started at submit, finished at reply delivery
}

// ctx is the span context a task's stages attach under: zero, which
// records no span, when the task is not traced.
func (ts *taskSpan) ctx() trace.SpanContext {
	if ts == nil {
		return trace.SpanContext{}
	}
	return ts.sc
}

// traceStart attaches tracing state to a task at submit: it adopts sc,
// the span context minted at command parse in the server front-end, when
// the request carries one, and otherwise draws the node-local sampling
// coin (so embedded/cluster-test nodes trace without a front-end).
func (n *Node) traceStart(sc trace.SpanContext, t *task) {
	adopted := sc.TraceID != 0
	if !adopted {
		var ok bool
		if sc, ok = n.trace.Sample(); !ok {
			return
		}
	}
	var name string
	if t.cmd != nil {
		name = t.cmd.SpanName
	} else {
		name = "cmd:" + t.name // a batch, INFO, WAIT or an unknown command
	}
	ts := &taskSpan{}
	if adopted {
		ts.root = n.trace.Child(sc, name, n.cfg.NodeID)
	} else {
		ts.root = n.trace.Root(sc, name, n.cfg.NodeID)
	}
	ts.sc = trace.SpanContext{TraceID: ts.root.TraceID, SpanID: ts.root.SpanID}
	t.tr = ts
}
