package server

import (
	"context"

	"memorydb/internal/baseline"
	"memorydb/internal/cluster"
	"memorydb/internal/core"
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
// span context the front end minted for it, without queueing it yet.
func (b NodeBackend) Add(run *core.Run, argv [][]byte, mode ReadMode, span trace.SpanContext) core.Call {
	return b.Node.Add(run, request(core.Request{Argv: argv, Span: span}, mode))
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
// cluster clients route themselves, which cluster.Client also models).
type ClusterBackend struct {
	Cluster *cluster.Cluster
}

// ClusterCommand implements ClusterOps.
func (b ClusterBackend) ClusterCommand(ctx context.Context, argv [][]byte) resp.Value {
	return b.Cluster.ClusterCommand(ctx, argv)
}

// Do implements Backend.
func (b ClusterBackend) Do(ctx context.Context, argv [][]byte, mode ReadMode) (resp.Value, error) {
	cl := b.Cluster.Client()
	if mode.ReadOnly {
		cl = b.Cluster.ReadClient(readOpts(mode))
	}
	return cl.DoArgv(ctx, argv)
}

// DoBatch implements Backend.
func (b ClusterBackend) DoBatch(ctx context.Context, cmds [][][]byte, mode ReadMode) (resp.Value, error) {
	cl := b.Cluster.Client()
	if mode.ReadOnly {
		cl = b.Cluster.ReadClient(readOpts(mode))
	}
	return cl.MultiExec(ctx, cmds)
}

// BaselineBackend serves an OSS-mode node.
type BaselineBackend struct {
	Node *baseline.Node
}

// errReadOnlyOSS rejects READONLY-mode traffic in OSS mode. This is an
// intentional divergence surfaced loudly: the baseline node has no
// durable log, no replicas and no replica read protocol, so a READONLY
// opt-in cannot take effect — and pretending it did (by serving from
// the only node there is) would let clients believe they exercised the
// replica read path when they did not.
var errReadOnlyOSS = resp.Err("ERR READONLY not supported in OSS mode")

// Do implements Backend.
func (b BaselineBackend) Do(ctx context.Context, argv [][]byte, mode ReadMode) (resp.Value, error) {
	if mode.ReadOnly {
		return errReadOnlyOSS, nil
	}
	return b.Node.Do(ctx, argv)
}

// DoBatch implements Backend.
func (b BaselineBackend) DoBatch(ctx context.Context, cmds [][][]byte, mode ReadMode) (resp.Value, error) {
	if mode.ReadOnly {
		return errReadOnlyOSS, nil
	}
	replies := make([]resp.Value, 0, len(cmds))
	for _, argv := range cmds {
		v, err := b.Node.Do(ctx, argv)
		if err != nil {
			return resp.Value{}, err
		}
		replies = append(replies, v)
	}
	return resp.ArrayV(replies...), nil
}
