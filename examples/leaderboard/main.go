// Leaderboard: the paper's motivating real-time aggregation workload — a
// sharded cluster maintains sorted-set leaderboards that concurrent
// writers update while readers pull consistent top-K rankings, with
// every score update durable across AZs before it is acknowledged.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/cluster"
	"memorydb/internal/netsim"
	"memorydb/internal/txlog"
)

func main() {
	svc := txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: netsim.DefaultCommitLatency(),
	})
	c, err := cluster.New(cluster.Config{
		Name: "game", NumShards: 2, ReplicasPerShard: 1, LogService: svc,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()
	for _, sh := range c.Shards() {
		if _, err := sh.WaitForPrimary(c.Clock(), 5*time.Second); err != nil {
			log.Fatal(err)
		}
	}

	ctx := context.Background()
	cl := c.Client()

	// 32 concurrent match servers report player scores for 60 ms.
	const players = 50
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			deadline := time.Now().Add(60 * time.Millisecond)
			for time.Now().Before(deadline) {
				player := fmt.Sprintf("player-%02d", rng.Intn(players))
				delta := fmt.Sprintf("%d", rng.Intn(100))
				if _, err := cl.Do(ctx, "ZINCRBY", "leaderboard", delta, player); err != nil {
					log.Fatal(err)
				}
			}
		}(int64(w))
	}
	wg.Wait()

	// Top-10, read with strong consistency from the owning primary.
	v, err := cl.Do(ctx, "ZREVRANGE", "leaderboard", "0", "9", "WITHSCORES")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-10 leaderboard (strongly consistent read):")
	for i := 0; i+1 < len(v.Array); i += 2 {
		fmt.Printf("  %2d. %-12s %s\n", i/2+1, v.Array[i].Text(), v.Array[i+1].Text())
	}

	// The same data is also on the replicas via the transaction log —
	// sequentially consistent reads for fan-out traffic.
	ro := c.ReadOnlyClient()
	if v, err := ro.Do(ctx, "ZCARD", "leaderboard"); err == nil {
		fmt.Printf("replica view: %d players tracked\n", v.Int)
	}
	total, err := cl.Do(ctx, "ZCARD", "leaderboard")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary view: %d players tracked\n", total.Int)
}
