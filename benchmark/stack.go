package main

import (
	"context"
	"fmt"
	"time"

	"memorydb/internal/core"
	"memorydb/internal/election"
	"memorydb/internal/netsim"
	"memorydb/internal/obs"
	"memorydb/internal/s3"
	"memorydb/internal/server"
	"memorydb/internal/snapshot"
	"memorydb/internal/txlog"
)

const shardID = "shard-0"

// endpoint is one node behind its own RESP server, wired the way
// cmd/memorydb-server wires them: the node and its front-end share one
// metrics registry so the whole path lands in one set of histograms.
type endpoint struct {
	node *core.Node
	obs  *obs.Metrics
	srv  *server.Server
}

// stack is the program under test: a log service, the shard's log, a
// snapshot store, a primary and (replica_ryw only) one replica.
type stack struct {
	log     *txlog.Log
	snaps   *snapshot.Manager
	primary *endpoint
	replica *endpoint
}

// startStack brings up the log service and a primary and waits for its
// election. commit is the per-AZ acknowledgement latency; nil is zero.
func startStack(commit netsim.LatencyModel) (*stack, error) {
	svc := txlog.NewService(txlog.Config{CommitLatency: commit})
	log, err := svc.CreateLog(shardID)
	if err != nil {
		return nil, fmt.Errorf("create log: %w", err)
	}
	st := &stack{log: log, snaps: snapshot.NewManager(s3.New(), "snapshots")}
	st.primary, err = st.startEndpoint("node-0", core.Config{})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.primary.node.Role() != election.RolePrimary {
		if time.Now().After(deadline) {
			st.stop()
			return nil, fmt.Errorf("node-0 was not elected within 10s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return st, nil
}

// startEndpoint starts a node on the stack's log and a multiplexed
// server in front of it. cfg carries only what differs from the defaults;
// every field the roadmap plans to delete stays unset.
func (st *stack) startEndpoint(id string, cfg core.Config) (*endpoint, error) {
	m := obs.New(obs.Options{})
	cfg.NodeID, cfg.ShardID = id, shardID
	cfg.Log, cfg.Snapshots, cfg.Obs = st.log, st.snaps, m
	node, err := core.NewNode(cfg)
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", id, err)
	}
	node.Start()
	srv := server.New(server.Config{
		Addr:      "127.0.0.1:0",
		Backend:   server.NodeBackend{Node: node},
		Multiplex: true,
		Obs:       m,
	})
	if err := srv.Start(); err != nil {
		node.Stop()
		return nil, fmt.Errorf("listen for %s: %w", id, err)
	}
	return &endpoint{node: node, obs: m, srv: srv}, nil
}

// startReplica checkpoints the log with one forkless-builder pass, then
// starts a replica that must bootstrap from that snapshot plus the log
// suffix, and waits until it has applied the committed tail. It returns
// how long the replica took from Start to caught up.
func (st *stack) startReplica() (time.Duration, error) {
	b := &snapshot.Builder{Manager: st.snaps, Log: st.log, ShardID: shardID, EngineVersion: 1, DeltaInterval: 1}
	if err := b.Tick(context.Background()); err != nil {
		return 0, fmt.Errorf("snapshot builder: %w", err)
	}
	begin := time.Now()
	// A linearizable replica read parks until the replica has applied the
	// write it must see. The default 50ms park limit turns one scheduler
	// stall on a shared box into a REDIRECT, which this benchmark counts
	// as a failed operation; 2s keeps the ladder's first rung in force.
	ep, err := st.startEndpoint("node-1", core.Config{ReplicaReadTimeout: 2 * time.Second})
	if err != nil {
		return 0, err
	}
	st.replica = ep
	target := st.log.CommittedTail().Seq
	deadline := begin.Add(30 * time.Second)
	for ep.node.AppliedSeq() < target {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("replica applied %d of %d entries within 30s", ep.node.AppliedSeq(), target)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if n := ep.node.Stats().SnapshotRestores.Load(); n == 0 {
		return 0, fmt.Errorf("replica replayed the whole log instead of restoring the snapshot")
	}
	return time.Since(begin), nil
}

func (st *stack) stop() {
	for _, ep := range []*endpoint{st.replica, st.primary} {
		if ep != nil {
			ep.srv.Close()
			ep.node.Stop()
		}
	}
}
