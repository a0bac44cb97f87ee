// Command memorydb-cluster provisions a local multi-shard MemoryDB
// cluster — shards with primaries and replicas across simulated AZs, a
// shared transaction log service, an S3 simulator, snapshot scheduling,
// and a monitoring service — and exposes it through a single
// cluster-routing RESP endpoint.
//
//	go run ./cmd/memorydb-cluster -shards 3 -replicas 1 -addr 127.0.0.1:6379
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/cluster"
	"memorydb/internal/netsim"
	"memorydb/internal/s3"
	"memorydb/internal/server"
	"memorydb/internal/snapshot"
	"memorydb/internal/txlog"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6379", "listen address")
	shards := flag.Int("shards", 3, "number of shards")
	replicas := flag.Int("replicas", 1, "replicas per shard")
	flag.Parse()

	svc := txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: netsim.DefaultCommitLatency(),
	})
	store := s3.New()
	snaps := snapshot.NewManager(store, "snapshots")

	c, err := cluster.New(cluster.Config{
		Name:             "local",
		NumShards:        *shards,
		ReplicasPerShard: *replicas,
		LogService:       svc,
		Snapshots:        snaps,
	})
	if err != nil {
		log.Fatalf("provision: %v", err)
	}
	defer c.Stop()
	for _, sh := range c.Shards() {
		if _, err := sh.WaitForPrimary(c.Clock(), 10*time.Second); err != nil {
			log.Fatalf("bootstrap: %v", err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Background control plane: monitoring and, per shard, a forkless
	// snapshot builder plus a trim coordinator that verifies each new tip
	// before it lets the log drop the segments below it.
	mon := &cluster.Monitor{Cluster: c, Interval: 5 * time.Second}
	go mon.Run(ctx)
	for _, sh := range c.Shards() {
		builder := &snapshot.Builder{Manager: snaps, Log: sh.Log, ShardID: sh.ID, EngineVersion: 2}
		go builder.Run(ctx)
		trimmer := &snapshot.Trimmer{Manager: snaps, Log: sh.Log, ShardID: sh.ID, Interval: 10 * time.Second}
		go trimmer.Run(ctx)
	}

	srv := server.New(server.Config{Addr: *addr, Backend: server.ClusterBackend{Cluster: c}})
	if err := srv.Start(); err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer srv.Close()

	fmt.Printf("cluster of %d shard(s) × %d replica(s) listening on %s\n", *shards, *replicas, srv.Addr())
	for _, sh := range c.Shards() {
		p, _ := sh.Primary()
		fmt.Printf("  %s: primary=%s slots=%d\n", sh.ID, p.ID(), len(c.OwnedSlots(sh.ID)))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("shutting down")
}
