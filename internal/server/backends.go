package server

import (
	"context"

	"memorydb/internal/cluster"
	"memorydb/internal/core"
	"memorydb/internal/engine"
	"memorydb/internal/resp"
	"memorydb/internal/trace"
)

// readOpts maps a connection's ReadMode onto the node's read ladder.
func readOpts(mode ReadMode) core.ReadOpts {
	switch {
	case mode.Eventual:
		return core.ReadOpts{Consistency: core.ReadEventual}
	case mode.Stale > 0:
		return core.ReadOpts{Consistency: core.ReadBoundedStale, StalenessBound: mode.Stale}
	default:
		return core.ReadOpts{Consistency: core.ReadLinearizable}
	}
}

// NodeBackend serves one MemoryDB node. It implements the run interface
// the pipelined connection loop needs.
type NodeBackend struct {
	Node *core.Node
}

// Add puts one command on run under the connection's read mode, with the
// span context the front end minted for it, without queueing it yet. It
// takes every command.
func (b NodeBackend) Add(run *core.Run, argv [][]byte, mode ReadMode, span trace.SpanContext) (core.Call, bool) {
	return b.Node.Add(run, request(core.Request{Argv: argv, Span: span}, mode)), true
}

// Submit hands run to the node, which serves it in one turn.
func (b NodeBackend) Submit(ctx context.Context, run *core.Run) { b.Node.SubmitRun(ctx, run) }

// Do implements Backend.
func (b NodeBackend) Do(ctx context.Context, argv [][]byte, mode ReadMode) (resp.Value, error) {
	v, _, err := b.Node.Submit(ctx, request(core.Request{Argv: argv}, mode)).Wait(ctx)
	return v, err
}

// DoBatch implements Backend. The connection's read mode is threaded
// through so a READONLY pipeline's all-read batches take the replica
// read ladder instead of silently requiring the primary.
func (b NodeBackend) DoBatch(ctx context.Context, cmds [][][]byte, mode ReadMode) (resp.Value, error) {
	v, _, err := b.Node.Submit(ctx, request(core.Request{Batch: cmds}, mode)).Wait(ctx)
	return v, err
}

// request sets req's replica-read opt-in from the connection's read mode.
func request(req core.Request, mode ReadMode) core.Request {
	if mode.ReadOnly {
		req.ReadOnly, req.Opts = true, readOpts(mode)
	}
	return req
}

// ClusterOps is implemented by backends that can answer CLUSTER
// introspection subcommands (SLOTS, SHARDS, KEYSLOT, ...).
type ClusterOps interface {
	ClusterCommand(ctx context.Context, argv [][]byte) resp.Value
}

// ClusterBackend routes through the cluster's smart client, so a single
// endpoint serves the whole keyspace (a convenience proxy; real Redis
// cluster clients route themselves, which cluster.Client also models). It
// pipelines what one shard's primary can take in one run, as NodeBackend
// does; a MOVED or TRYAGAIN inside a run reaches the client as Redis
// Cluster returns it.
type ClusterBackend struct {
	Cluster *cluster.Cluster
}

// ClusterCommand implements ClusterOps.
func (b ClusterBackend) ClusterCommand(ctx context.Context, argv [][]byte) resp.Value {
	return b.Cluster.ClusterCommand(ctx, argv)
}

// Add puts a READWRITE command on run when its shard has a live primary
// and run holds no other node's commands. It declines the rest, which Do
// serves: READONLY connections (the replica ladder and its REDIRECT
// retry), a shard without a primary (Do waits for one), another node's
// command, and DEBUG, which Do answers for the whole cluster.
func (b ClusterBackend) Add(run *core.Run, argv [][]byte, mode ReadMode, span trace.SpanContext) (core.Call, bool) {
	if mode.ReadOnly || is(argv[0], "DEBUG") {
		return core.Call{}, false
	}
	p, ok := b.Cluster.PrimaryFor(argv)
	if !ok || (run.Node() != nil && run.Node() != p) {
		return core.Call{}, false
	}
	return p.Add(run, core.Request{Argv: argv, Span: span}), true
}

// Submit hands run to the node its commands were added for.
func (b ClusterBackend) Submit(ctx context.Context, run *core.Run) {
	if n := run.Node(); n != nil {
		n.SubmitRun(ctx, run)
	}
}

// Do implements Backend. DEBUG FLIGHT reads the cluster's merged timeline.
func (b ClusterBackend) Do(ctx context.Context, argv [][]byte, mode ReadMode) (resp.Value, error) {
	if is(argv[0], "DEBUG") {
		return engine.DebugFlight(argv, b.Cluster.MergedTimeline(), b.Cluster.FlightTotal()), nil
	}
	return b.client(mode).DoArgv(ctx, argv)
}

// DoBatch implements Backend.
func (b ClusterBackend) DoBatch(ctx context.Context, cmds [][][]byte, mode ReadMode) (resp.Value, error) {
	return b.client(mode).MultiExec(ctx, cmds)
}

// client is the routing client for a connection's read mode.
func (b ClusterBackend) client(mode ReadMode) *cluster.Client {
	if mode.ReadOnly {
		return b.Cluster.ReadClient(readOpts(mode))
	}
	return b.Cluster.Client()
}
