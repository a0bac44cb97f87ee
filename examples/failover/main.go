// Failover: a side-by-side demonstration of §2.2. Two one-shard clusters
// run the same write workload and suffer the same crash. They share the
// log, the elections and the replicas, and differ in one rule: when a
// write's reply leaves. On OSS Redis's rule (cluster.Config.AckOnExecute)
// it leaves once the write executes; on MemoryDB's, once the write's log
// entry commits. Each primary dies at its crashRun-th flush, before the
// entry reaches the log (core.flush.pre), and its replica takes over:
// Redis loses the writes it acknowledged in the crashed turn, MemoryDB
// loses none.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/cluster"
	"memorydb/internal/core"
	"memorydb/internal/netsim"
	"memorydb/internal/txlog"
)

// The workload: runs of runLen SETs, each pipelined as one run and ended
// by a WAIT, so each run is one turn and one log entry. The primary
// crashes at the flush of run crashRun.
const (
	runs     = 12
	runLen   = 25
	crashRun = 5
	// runTimeout is how long a client waits on a run's replies.
	runTimeout = 300 * time.Millisecond
)

func main() {
	redisLost, redisAcked := runArm(true)
	fmt.Printf("OSS Redis rule: %d/%d acknowledged writes survive failover (%d lost)\n",
		redisAcked-redisLost, redisAcked, redisLost)
	lost, acked := runArm(false)
	fmt.Printf("MemoryDB rule:  %d/%d acknowledged writes survive failover (%d lost)\n",
		acked-lost, acked, lost)
	if lost > 0 {
		log.Fatal("MemoryDB lost acknowledged writes — this should be impossible")
	}
}

// runArm runs the workload on a fresh cluster under one release rule until
// its primary crashes, fails over, and returns how many of the writes
// acknowledged before the crash are gone, and how many there were.
func runArm(ackOnExecute bool) (lost, acked int) {
	svc := txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: netsim.NewUniform(200*time.Microsecond, time.Millisecond, 7),
	})
	c, err := cluster.New(cluster.Config{
		Name: "failover", NumShards: 1, ReplicasPerShard: 1, LogService: svc,
		Lease: 150 * time.Millisecond, Backoff: 200 * time.Millisecond,
		RenewEvery:   40 * time.Millisecond,
		FaultSpec:    fmt.Sprintf("core.flush.pre=crash@%d", crashRun-1),
		AckOnExecute: ackOnExecute,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()
	sh := c.Shards()[0]
	p, err := sh.WaitForPrimary(c.Clock(), 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}

	// A run's replies are awaited for runTimeout at most: the crashed
	// primary answers nothing more, and its unanswered WAIT ends the
	// workload.
	var ackedKeys []string
	for r := 0; r < runs; r++ {
		ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
		var run core.Run
		calls := make([]core.Call, runLen)
		for i := range calls {
			calls[i] = p.Add(&run, core.Request{Argv: [][]byte{[]byte("SET"), key(r*runLen + i), []byte("v")}})
		}
		wait := p.Add(&run, core.Request{Argv: [][]byte{[]byte("WAIT"), []byte("1"), []byte("0")}})
		p.SubmitRun(ctx, &run)
		for i, call := range calls {
			if v, _, err := call.Wait(ctx); err == nil && v.Text() == "OK" {
				ackedKeys = append(ackedKeys, string(key(r*runLen+i))) // the client was told it succeeded
			}
		}
		_, _, err := wait.Wait(ctx)
		cancel()
		if err != nil {
			break
		}
	}

	p.Stop()
	if _, err := sh.WaitForPrimary(c.Clock(), 5*time.Second); err != nil {
		log.Fatal(err)
	}
	cl := c.Client()
	for _, k := range ackedKeys {
		v, err := cl.Do(context.Background(), "GET", k)
		if err != nil {
			log.Fatal(err)
		}
		if v.Null {
			lost++
		}
	}
	return lost, len(ackedKeys)
}

func key(i int) []byte {
	return []byte(fmt.Sprintf("order:%04d", i))
}
