package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/faultpoint"
	"memorydb/internal/lin"
	"memorydb/internal/netsim"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/txlog"
)

// Replica-read chaos schedules (tentpole: lease-gated linearizable
// replica reads). Each schedule drives sustained READONLY load through
// the cluster client while a nemesis attacks exactly the machinery the
// freshness proof depends on — leadership (failover storm), the log
// feed (asymmetric replica partition), and the tailer's position (trim
// past a frozen replica). Replica reads served with a linearizable
// claim join the same concurrent history as the writers and must check
// out under the Porcupine-style checker; bounded-stale serves are
// checked against the client's declared bound; nothing is ever allowed
// to hang or to pass off stale state as fresh.
//
// The CI gate (scripts/check.sh, `make reads`) runs these at fixed
// seeds via MEMORYDB_CHAOS_SEED under -race.

// replicaReadCluster provisions a cluster tuned for the replica-read
// schedules: small log segments (so trim schedules can rotate and seal),
// seeded commit latency and retry jitter, chaos-grade lease timings.
func replicaReadCluster(t *testing.T, seed int64, numShards, replicas int) (*txlog.Service, *Cluster, *snapshot.Manager) {
	t.Helper()
	svc := txlog.NewService(txlog.Config{
		Clock:          clock.NewReal(),
		CommitLatency:  netsim.NewUniform(100*time.Microsecond, time.Millisecond, seed),
		SegmentEntries: 16,
	})
	snaps := snapshot.NewManager(s3.New(), "snaps")
	c, err := New(Config{
		Name: "readstorm", NumShards: numShards, ReplicasPerShard: replicas,
		LogService: svc, Snapshots: snaps,
		Lease: 100 * time.Millisecond, Backoff: 140 * time.Millisecond,
		RenewEvery: 25 * time.Millisecond,
		RetrySeed:  seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	dumpTimelineOnFailure(t, c)
	for _, sh := range c.Shards() {
		if _, err := sh.WaitForPrimary(c.Clock(), 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return svc, c, snaps
}

// readLadderTally counts which rungs of the degradation ladder the
// readers actually hit, so each schedule can assert its target path was
// exercised rather than silently skipped.
type readLadderTally struct {
	linearized atomic.Int64 // replica serves with a successful freshness proof
	stale      atomic.Int64 // bounded-stale serves under a declared bound
	redirects  atomic.Int64 // REDIRECT errors that survived client retries
}

// runGenWriters drives writer clients over the shared generator keyspace
// (mixed SET/GET through the default routing client), recording into the
// shared recorder. Blocks until all writers finish.
func runGenWriters(c *Cluster, rec *lin.Recorder, seed int64, writers, ops, keys int, pace time.Duration) {
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(clientID int) {
			defer wg.Done()
			gen := lin.NewGenerator(lin.GenConfig{Seed: seed + int64(clientID), Keys: keys, WriteRatio: 0.5})
			client := c.Client()
			for i := 0; i < ops; i++ {
				time.Sleep(pace)
				key, in, args := gen.Next(clientID*100000 + i)
				cctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
				call := rec.Invoke()
				v, err := client.Do(cctx, args...)
				cancel()
				out := lin.Output{}
				if err != nil || v.IsError() {
					out.Err = true
				} else if in.Kind == "get" {
					out.Value = v.Text()
				}
				rec.Complete(clientID, key, in, out, call)
			}
		}(w)
	}
	wg.Wait()
}

// runReaders drives READONLY clients at the given consistency level.
// Reads served with a linearizable claim (on a replica with a proof, or
// retried onto the primary) join the shared lin history; bounded-stale
// serves are collected separately for the staleness checker; failures
// are recorded as ambiguous. Blocks until all readers finish.
func runReaders(c *Cluster, rec *lin.Recorder, seed int64, readers, ops int,
	keyFn func(*rand.Rand) string, pace time.Duration, opts core.ReadOpts, tally *readLadderTally) []lin.BoundedRead {
	var mu sync.Mutex
	var bounded []lin.BoundedRead
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(clientID int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ int64(0xbead+clientID)))
			rc := c.ReadClient(opts)
			for i := 0; i < ops; i++ {
				time.Sleep(pace)
				key := keyFn(rng)
				argv := [][]byte{[]byte("GET"), []byte(key)}
				cctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
				call := rec.Invoke()
				v, outcome, err := rc.DoArgvOutcome(cctx, argv)
				cancel()
				failed := err != nil || v.IsError()
				if !failed && outcome == core.ReadOutcomeStale {
					// Served under the client's declared bound: checked by
					// the bounded-staleness checker, never admitted into
					// the linearizable history.
					tally.stale.Add(1)
					mu.Lock()
					bounded = append(bounded, lin.BoundedRead{
						ClientID: clientID, Key: key, Value: v.Text(),
						Call: call, Bound: opts.StalenessBound.Nanoseconds(),
					})
					mu.Unlock()
					continue
				}
				out := lin.Output{}
				if failed {
					out.Err = true
					if err == nil && core.IsRedirect(v) {
						tally.redirects.Add(1)
					}
				} else {
					out.Value = v.Text()
					if outcome == core.ReadOutcomeLinearizable {
						tally.linearized.Add(1)
					}
				}
				rec.Complete(1000+clientID, key, lin.Input{Kind: "get"}, out, call)
			}
		}(r)
	}
	wg.Wait()
	return bounded
}

// TestReplicaReadsFailoverStorm: READONLY load continues through a storm
// of primary step-downs and replacements. Every read served with a
// linearizable claim — replica-proved or redirected onto the (possibly
// brand-new) primary — participates in the history as a first-class
// operation; the storm must not produce a single stale linearizable read.
func TestReplicaReadsFailoverStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("replica-read chaos skipped in -short mode")
	}
	seed := chaosSeed(t)
	_, c, _ := replicaReadCluster(t, seed, 2, 2)

	done := make(chan struct{})
	var windows atomic.Int64
	var sched sync.WaitGroup
	sched.Add(1)
	go func() {
		defer sched.Done()
		rng := rand.New(rand.NewSource(seed ^ 0xfa110))
		for {
			shards := c.Shards()
			sh := shards[rng.Intn(len(shards))]
			if p, ok := sh.Primary(); ok {
				if rng.Intn(2) == 0 {
					cctx, cancel := context.WithTimeout(context.Background(), time.Second)
					if err := p.StepDown(cctx); err == nil {
						windows.Add(1)
					}
					cancel()
				} else if _, err := c.ReplaceNode(p.ID()); err == nil {
					windows.Add(1)
				}
			}
			select {
			case <-done:
				return
			case <-time.After(time.Duration(150+rng.Intn(150)) * time.Millisecond):
			}
		}
	}()

	rec := lin.NewRecorder()
	var tally readLadderTally
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		runGenWriters(c, rec, seed, 2, 50, 16, 5*time.Millisecond)
	}()
	go func() {
		defer wg.Done()
		runReaders(c, rec, seed, 3, 60, func(rng *rand.Rand) string {
			return fmt.Sprintf("lin-k%d", rng.Intn(16))
		}, 5*time.Millisecond, core.ReadOpts{}, &tally)
	}()
	wg.Wait()
	close(done)
	sched.Wait()

	if w := windows.Load(); w < 2 {
		t.Fatalf("only %d failovers completed — storm too tame to mean anything", w)
	}
	if tally.linearized.Load() == 0 {
		t.Fatal("no replica read was ever served with a freshness proof — the gated path was not exercised")
	}
	history := rec.History()
	if ok, badKey := lin.Check(lin.RegisterModel{}, history); !ok {
		t.Fatalf("failover-storm history with replica reads not linearizable (key %s, %d ops)", badKey, len(history))
	}
	t.Logf("failover storm: %d failovers, %d ops, %d replica-proved reads, %d redirects",
		windows.Load(), len(history), tally.linearized.Load(), tally.redirects.Load())
}

// TestReplicaReadsBoundedStalenessPartition: the replica is repeatedly
// cut off from the log feed while staying reachable by clients — the
// asymmetric shape. Clients declare a 120ms staleness tolerance: early
// in each partition window the replica serves under the bound, past it
// the reads bounce to the primary. Both checkers must pass: linearizable
// claims against the register model, bounded serves against the bound.
func TestReplicaReadsBoundedStalenessPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("replica-read chaos skipped in -short mode")
	}
	seed := chaosSeed(t)
	_, c, _ := replicaReadCluster(t, seed, 1, 1)
	sh := c.Shards()[0]
	reps := sh.Replicas()
	if len(reps) != 1 {
		t.Fatalf("want exactly 1 replica, have %d", len(reps))
	}
	part := c.nodeFaults(reps[0].ID())

	// Single sequential writer per key — the bounded-staleness checker's
	// generation ordering relies on it.
	const writerCount, keysPerWriter = 2, 4
	ownKeys := make([][]string, writerCount)
	var allKeys []string
	for w := range ownKeys {
		for j := 0; j < keysPerWriter; j++ {
			k := fmt.Sprintf("bs-w%d-k%d", w, j)
			ownKeys[w] = append(ownKeys[w], k)
			allKeys = append(allKeys, k)
		}
	}

	done := make(chan struct{})
	var windows atomic.Int64
	var sched sync.WaitGroup
	sched.Add(1)
	go func() {
		defer sched.Done()
		rng := rand.New(rand.NewSource(seed ^ 0x9a37))
		for {
			setLevel(part, faultpoint.SiteNodePartition, true)
			select {
			case <-done:
				setLevel(part, faultpoint.SiteNodePartition, false)
				return
			case <-time.After(time.Duration(80+rng.Intn(80)) * time.Millisecond):
			}
			setLevel(part, faultpoint.SiteNodePartition, false)
			windows.Add(1)
			select {
			case <-done:
				return
			case <-time.After(80 * time.Millisecond):
			}
		}
	}()

	rec := lin.NewRecorder()
	var tally readLadderTally
	var wg sync.WaitGroup
	wg.Add(1 + writerCount)
	for w := 0; w < writerCount; w++ {
		go func(w int) {
			defer wg.Done()
			client := c.Client()
			for i := 0; i < 50; i++ {
				time.Sleep(10 * time.Millisecond)
				key := ownKeys[w][i%keysPerWriter]
				val := fmt.Sprintf("g%d", i)
				cctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
				call := rec.Invoke()
				v, err := client.Do(cctx, "SET", key, val)
				cancel()
				out := lin.Output{}
				if err != nil || v.IsError() {
					out.Err = true
				}
				rec.Complete(w, key, lin.Input{Kind: "set", Value: val}, out, call)
			}
		}(w)
	}
	var bounded []lin.BoundedRead
	go func() {
		defer wg.Done()
		bounded = runReaders(c, rec, seed, 2, 120, func(rng *rand.Rand) string {
			return allKeys[rng.Intn(len(allKeys))]
		}, 5*time.Millisecond,
			core.ReadOpts{Consistency: core.ReadBoundedStale, StalenessBound: 120 * time.Millisecond}, &tally)
	}()
	wg.Wait()
	close(done)
	sched.Wait()

	if w := windows.Load(); w < 2 {
		t.Fatalf("only %d partition windows completed — schedule too short to mean anything", w)
	}
	if tally.stale.Load() == 0 {
		t.Fatal("no read was served under the staleness bound — the degradation rung was not exercised")
	}
	history := rec.History()
	if ok, badKey := lin.Check(lin.RegisterModel{}, history); !ok {
		t.Fatalf("bounded-staleness schedule's linearizable history failed (key %s, %d ops)", badKey, len(history))
	}
	var writes []lin.Operation
	for _, op := range history {
		if op.Input.Kind == "set" {
			writes = append(writes, op)
		}
	}
	if ok, detail := lin.CheckBoundedStaleness(writes, bounded); !ok {
		t.Fatalf("bounded-staleness violation: %s", detail)
	}
	t.Logf("bounded staleness: %d windows, %d lin ops, %d stale serves checked, %d redirects",
		windows.Load(), len(history), tally.stale.Load(), tally.redirects.Load())
}

// TestReplicaReadsTrimRebootstrap: a replica is frozen, the log is
// trimmed past its tailer, and it is resurrected mid-load — forcing the
// ErrTrimmed → snapshot re-bootstrap path while READONLY clients keep
// reading. Reads must drain or degrade around the rebuild; a half-built
// store must never serve, which the linearizable history would expose.
func TestReplicaReadsTrimRebootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("replica-read chaos skipped in -short mode")
	}
	seed := chaosSeed(t)
	_, c, snaps := replicaReadCluster(t, seed, 1, 2)
	sh := c.Shards()[0]
	client := c.Client()
	ctx := context.Background()

	rec := lin.NewRecorder()
	var tally readLadderTally
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		runGenWriters(c, rec, seed, 1, 40, 8, 10*time.Millisecond)
	}()
	go func() {
		defer wg.Done()
		runReaders(c, rec, seed, 2, 80, func(rng *rand.Rand) string {
			return fmt.Sprintf("lin-k%d", rng.Intn(8))
		}, 5*time.Millisecond, core.ReadOpts{}, &tally)
	}()

	// Nemesis: freeze one replica, push the trim base past its tailer,
	// then wake it into a log that no longer contains its next entry.
	lag := sh.Replicas()[0]
	// Freeze it only once it is tailing: frozen before its first restore
	// it would wake, restore from the new snapshot, and skip this path.
	if err := waitCaughtUp(c.Clock(), sh, lag); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if err := c.Kill(lag.ID()); err != nil {
		t.Fatal(err)
	}
	frozen := lag.AppliedSeq()
	cp := &snapshot.Builder{Manager: snaps, Log: sh.Log, ShardID: sh.ID, EngineVersion: 1}
	for round := 0; round < 10 && sh.Log.TrimBase().Seq <= frozen; round++ {
		for i := 0; i < 40; i++ {
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			if v, err := client.Do(cctx, "SET", fmt.Sprintf("bulk-%d-%d", round, i), "x"); err != nil || v.IsError() {
				cancel()
				t.Fatalf("bulk SET: %v %v", v, err)
			}
			cancel()
		}
		if _, err := cp.Full(ctx); err != nil {
			t.Fatal(err)
		}
		if err := cp.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if base := sh.Log.TrimBase().Seq; base <= frozen {
		t.Fatalf("setup: trim base %d never passed the frozen tailer at %d", base, frozen)
	}
	tail := sh.Log.CommittedTail().Seq
	if err := c.Resurrect(lag.ID()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && lag.Stats().ReaderRebootstraps.Load() == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if lag.Stats().ReaderRebootstraps.Load() == 0 {
		t.Fatal("woken replica never re-bootstrapped from snapshot")
	}
	waitApplied(t, lag, tail, time.Until(deadline))

	wg.Wait()
	if tally.linearized.Load() == 0 {
		t.Fatal("no replica read was ever served with a freshness proof")
	}
	history := rec.History()
	if ok, badKey := lin.Check(lin.RegisterModel{}, history); !ok {
		t.Fatalf("trim-rebootstrap history with replica reads not linearizable (key %s, %d ops)", badKey, len(history))
	}
	if gaps := lag.Stats().LogGapRetries.Load(); gaps != 0 {
		t.Fatalf("replica hit %d trimmed-gap retries — it served or applied across a gap", gaps)
	}
	t.Logf("trim rebootstrap: %d ops, %d replica-proved reads, %d redirects, rebootstraps=%d",
		len(history), tally.linearized.Load(), tally.redirects.Load(), lag.Stats().ReaderRebootstraps.Load())
}
