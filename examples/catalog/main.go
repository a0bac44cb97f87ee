// Catalog: the e-commerce microservice from the paper's introduction.
// With cache-mode Redis, teams kept the source of truth in a separate
// database and rebuilt the cache after every data-loss event. With
// MemoryDB the catalog lives *in* the store: this example ingests a
// product catalog, crashes the primary mid-traffic, lets a replica take
// over, and shows that every acknowledged item survives — no pipeline,
// no re-hydration job.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/cluster"
	"memorydb/internal/netsim"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/txlog"
)

func main() {
	svc := txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: netsim.DefaultCommitLatency(),
	})
	snaps := snapshot.NewManager(s3.New(), "snapshots")
	c, err := cluster.New(cluster.Config{
		Name: "shop", NumShards: 1, ReplicasPerShard: 1,
		LogService: svc, Snapshots: snaps,
		Lease: 150 * time.Millisecond, Backoff: 200 * time.Millisecond,
		RenewEvery: 40 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()
	sh := c.Shards()[0]
	if _, err := sh.WaitForPrimary(c.Clock(), 5*time.Second); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	cl := c.Client()

	// Ingest the catalog directly: MemoryDB is the primary database.
	fmt.Println("ingesting 200 products...")
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("item:%03d", i)
		if _, err := cl.Do(ctx, "HSET", id,
			"title", fmt.Sprintf("Product %d", i),
			"price", fmt.Sprintf("%d.99", 5+i%40),
			"stock", "100"); err != nil {
			log.Fatal(err)
		}
	}

	// Serve some page views.
	v, err := cl.Do(ctx, "HGETALL", "item:042")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("item:042 -> %v\n", v)

	// Disaster: the primary dies.
	primary, _ := sh.Primary()
	fmt.Printf("\nkilling primary %s mid-traffic...\n", primary.ID())
	primary.Stop()

	// The fully caught-up replica wins the conditional-append election.
	newPrimary, err := sh.WaitForPrimary(c.Clock(), 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica %s promoted (epoch %d)\n", newPrimary.ID(), newPrimary.Epoch())

	// Every acknowledged item is still there — no cache rebuild, no
	// reconciliation job against a second database.
	missing := 0
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("item:%03d", i)
		v, err := cl.Do(ctx, "HGET", id, "title")
		if err != nil || v.Null {
			missing++
		}
	}
	fmt.Printf("catalog after failover: %d/200 items present (%d missing)\n", 200-missing, missing)
	if missing > 0 {
		log.Fatal("acknowledged writes were lost — this should be impossible")
	}
	fmt.Println("zero data loss: the transaction log was the source of truth all along")
}
