// Quickstart: provision a durable single-shard MemoryDB, write through
// the multi-AZ transaction log, and read back — the minimal end-to-end
// path through the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/election"
	"memorydb/internal/netsim"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/txlog"
)

func main() {
	// 1. The durability substrate: a transaction log service committing
	// every record to three simulated AZs (~2 ms quorum), plus S3 for
	// snapshots.
	logSvc := txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: netsim.NewLogNormalish(2*time.Millisecond, 500*time.Microsecond, 1),
	})
	shardLog, err := logSvc.CreateLog("quickstart-shard")
	if err != nil {
		log.Fatal(err)
	}
	snaps := snapshot.NewManager(s3.New(), "snapshots")

	// 2. A node: Redis-compatible engine with its replication stream
	// redirected into the log. It bootstraps itself to primary.
	node, err := core.NewNode(core.Config{
		NodeID:    "node-a",
		ShardID:   "quickstart-shard",
		Log:       shardLog,
		Snapshots: snaps,
	})
	if err != nil {
		log.Fatal(err)
	}
	node.Start()
	defer node.Stop()
	for changed := node.Changed(); node.Role() != election.RolePrimary; changed = node.Changed() {
		<-changed
	}

	// 3. Use it like Redis — except every acknowledged write is durable.
	ctx := context.Background()
	do := func(args ...string) {
		argv := make([][]byte, len(args))
		for i, a := range args {
			argv[i] = []byte(a)
		}
		start := time.Now()
		v, err := node.Do(ctx, argv)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-44s -> %-28v (%.2f ms)\n", strings.Join(args, " "), v, float64(time.Since(start).Microseconds())/1000)
	}
	do("SET", "greeting", "hello, durable world")
	do("GET", "greeting")
	do("HSET", "user:1", "name", "ada", "score", "42")
	do("HGETALL", "user:1")
	do("ZADD", "board", "42", "ada", "17", "bob")
	do("ZREVRANGE", "board", "0", "-1", "WITHSCORES")

	tail, sum := shardLog.RunningChecksum()
	fmt.Printf("\ntransaction log: %d committed entries, %d AZ copies, running checksum %#x\n",
		tail.Seq, shardLog.AZCopies(), sum)
}
