package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/faultpoint"
	"memorydb/internal/lin"
	"memorydb/internal/netsim"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/txlog"
)

// chaosSeed returns the seed every chaos schedule runs under. The CI gate
// (scripts/check.sh) runs the Chaos tests at two fixed seeds via
// MEMORYDB_CHAOS_SEED so fault-path regressions reproduce exactly.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("MEMORYDB_CHAOS_SEED")
	if s == "" {
		return 99
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad MEMORYDB_CHAOS_SEED %q: %v", s, err)
	}
	return v
}

// TestChaosAcknowledgedWritesSurvive is the paper's core durability claim
// under a randomized fault storm: while writers hammer a cluster, the
// control plane keeps killing primaries and replicas, forcing hand-overs,
// taking off-box snapshots, and migrating slots. At the end, the latest
// acknowledged value of every key must be readable. Writes that errored
// or timed out are ambiguous and excluded — but anything the system
// acknowledged is sacred.
func TestChaosAcknowledgedWritesSurvive(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	svc := txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: netsim.NewUniform(100*time.Microsecond, time.Millisecond, 5),
	})
	snaps := snapshot.NewManager(s3.New(), "snaps")
	c, err := New(Config{
		Name: "chaos", NumShards: 2, ReplicasPerShard: 1,
		LogService: svc, Snapshots: snaps,
		Lease: 100 * time.Millisecond, Backoff: 140 * time.Millisecond,
		RenewEvery:    25 * time.Millisecond,
		ChecksumEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	dumpTimelineOnFailure(t, c)
	for _, sh := range c.Shards() {
		if _, err := sh.WaitForPrimary(c.Clock(), 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	const keys = 40
	var ackMu sync.Mutex
	acked := make(map[string]ackEntry)

	ctx := context.Background()
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			cl := c.Client()
			gen := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				gen++
				key := fmt.Sprintf("chaos-k%d", rng.Intn(keys))
				val := fmt.Sprintf("s%d-g%d", seed, gen)
				cctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
				v, err := cl.Do(cctx, "SET", key, val)
				cancel()
				if err != nil || v.IsError() {
					continue // ambiguous or rejected: not acknowledged
				}
				ackMu.Lock()
				acked[key] = ackEntry{gen: gen}
				ackMu.Unlock()
			}
		}(int64(w + 1))
	}

	// Fault storm.
	chaosRng := rand.New(rand.NewSource(chaosSeed(t)))
	deadline := time.Now().Add(2 * time.Second)
	faults := 0
	for time.Now().Before(deadline) {
		shards := c.Shards()
		sh := shards[chaosRng.Intn(len(shards))]
		switch chaosRng.Intn(4) {
		case 0: // kill the primary
			if p, ok := sh.Primary(); ok {
				if _, err := c.ReplaceNode(p.ID()); err == nil {
					faults++
				}
			}
		case 1: // kill a replica
			if reps := sh.Replicas(); len(reps) > 0 {
				if _, err := c.ReplaceNode(reps[0].ID()); err == nil {
					faults++
				}
			}
		case 2: // collaborative hand-over
			if p, ok := sh.Primary(); ok {
				cctx, cancel := context.WithTimeout(ctx, time.Second)
				if err := p.StepDown(cctx); err == nil {
					faults++
				}
				cancel()
			}
		case 3: // off-box snapshot of a random shard
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			cp := &snapshot.Builder{Manager: snaps, Log: sh.Log, ShardID: sh.ID, EngineVersion: 2}
			if _, err := cp.Full(cctx); err == nil {
				faults++
			}
			cancel()
		}
		time.Sleep(time.Duration(50+chaosRng.Intn(150)) * time.Millisecond)
	}
	close(stop)
	writers.Wait()
	if faults < 5 {
		t.Fatalf("fault storm too tame: only %d faults injected", faults)
	}
	auditAcked(t, c, acked, &ackMu)
	t.Logf("chaos survived: %d faults, %d acknowledged keys intact", faults, len(acked))
}

// ackEntry marks a write the cluster acknowledged (and therefore owes).
type ackEntry struct {
	gen int
}

// auditAcked waits for every shard to settle on a primary, then verifies
// each acknowledged key is still readable.
func auditAcked(t *testing.T, c *Cluster, acked map[string]ackEntry, mu *sync.Mutex) {
	t.Helper()
	for _, sh := range c.Shards() {
		if _, err := sh.WaitForPrimary(c.Clock(), 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	cl := c.Client()
	missing := 0
	mu.Lock()
	keysToCheck := make([]string, 0, len(acked))
	for k := range acked {
		keysToCheck = append(keysToCheck, k)
	}
	mu.Unlock()
	if len(keysToCheck) == 0 {
		t.Fatal("no writes were acknowledged during the storm")
	}
	for _, k := range keysToCheck {
		cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		v, err := cl.Do(cctx, "GET", k)
		cancel()
		if err != nil || v.Null || v.IsError() {
			missing++
			t.Errorf("acknowledged key %s lost: %v %v", k, v, err)
		}
	}
	if missing > 0 {
		t.Fatalf("%d/%d acknowledged keys lost across the fault storm", missing, len(keysToCheck))
	}
}

// ---- AZ-fault chaos schedules (tentpole: per-AZ quorum robustness) ----
//
// Each schedule drives a lin-recorded SET/GET workload through the
// cluster client while AZ replicas of the shared transaction-log service
// fail per a fixed-seed plan, then checks the concurrent history for
// linearizability. Per-key histories are kept small (the checker bounds
// them at 63 ops) by using a wide key space and paced clients.

// zoneSites are the fault sites of the log service's three zones.
var zoneSites = []string{faultpoint.ZoneAckSite(0), faultpoint.ZoneAckSite(1), faultpoint.ZoneAckSite(2)}

// setLevel raises (or clears) a standing Error plan at site: a zone
// outage on the log service's registry, or a partition on a node's.
func setLevel(r *faultpoint.Registry, site string, on bool) {
	if on {
		r.SetPlan(site, 1, 0, faultpoint.Error)
	} else {
		r.SetPlan(site, 0, 0)
	}
}

// chaosCluster provisions a 2-shard cluster whose txlog fault registry,
// commit-latency model, and node retry jitter are all derived from seed.
// It returns the log service's fault registry, where the zone sites live.
func chaosCluster(t *testing.T, seed int64) (*txlog.Service, *faultpoint.Registry, *Cluster) {
	t.Helper()
	faults := faultpoint.New(seed)
	svc := txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: netsim.NewUniform(100*time.Microsecond, time.Millisecond, seed),
		Faults:        faults,
	})
	c, err := New(Config{
		Name: "azchaos", NumShards: 2, ReplicasPerShard: 1,
		LogService: svc, Snapshots: snapshot.NewManager(s3.New(), "snaps"),
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
	return svc, faults, c
}

// runLinWorkload drives clients paced SET/GET clients through the cluster
// client, recording a concurrent history; failed or timed-out operations
// are recorded as ambiguous. Returns the history and the error count.
func runLinWorkload(t *testing.T, c *Cluster, seed int64, clients, ops, keys int, pace time.Duration) ([]lin.Operation, int) {
	t.Helper()
	rec := lin.NewRecorder()
	var errs atomic.Int64
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
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
					errs.Add(1)
				} else if in.Kind == "get" {
					out.Value = v.Text()
				}
				rec.Complete(clientID, key, in, out, call)
			}
		}(cl)
	}
	wg.Wait()
	return rec.History(), int(errs.Load())
}

// sumDemotions totals demotions across every node in the cluster.
func sumDemotions(c *Cluster) int64 {
	var total int64
	for _, sh := range c.Shards() {
		for _, n := range sh.Nodes() {
			total += n.Stats().Demotions.Load()
		}
	}
	return total
}

// TestChaosSingleAZOutage: one AZ replica is down for the entire run. The
// 2-of-3 quorum must hold availability — zero client errors, zero
// demotions, a linearizable history — with only degraded latency to show
// for it.
func TestChaosSingleAZOutage(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	seed := chaosSeed(t)
	svc, faults, c := chaosCluster(t, seed)

	setLevel(faults, zoneSites[0], true)
	defer setLevel(faults, zoneSites[0], false)

	history, errs := runLinWorkload(t, c, seed, 3, 40, 16, 2*time.Millisecond)
	if errs != 0 {
		t.Fatalf("%d client errors under a single-AZ outage, want 0", errs)
	}
	if d := sumDemotions(c); d != 0 {
		t.Fatalf("%d demotions under a single-AZ outage, want 0", d)
	}
	if !svc.Degraded() {
		t.Fatal("service should report degraded with an AZ down")
	}
	var degraded int64
	for _, sh := range c.Shards() {
		degraded += sh.Log.Stats().DegradedAppends
	}
	if degraded == 0 {
		t.Fatal("expected partial-ack appends during the outage")
	}
	if ok, badKey := lin.Check(lin.RegisterModel{}, history); !ok {
		t.Fatalf("single-AZ-outage history not linearizable (key %s, %d ops)", badKey, len(history))
	}
}

// TestChaosRollingAZOutages: AZ replicas go down one at a time in
// rotation — the rolling-maintenance shape. Quorum always holds, so the
// workload must see no errors and no node may demote.
func TestChaosRollingAZOutages(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	seed := chaosSeed(t)
	_, faults, c := chaosCluster(t, seed)

	done := make(chan struct{})
	var windows atomic.Int64
	var sched sync.WaitGroup
	sched.Add(1)
	go func() {
		defer sched.Done()
		az := 0
		for {
			setLevel(faults, zoneSites[az], true)
			select {
			case <-done:
				setLevel(faults, zoneSites[az], false)
				return
			case <-time.After(60 * time.Millisecond):
			}
			setLevel(faults, zoneSites[az], false)
			windows.Add(1)
			select {
			case <-done:
				return
			case <-time.After(10 * time.Millisecond):
			}
			az = (az + 1) % len(zoneSites)
		}
	}()

	history, errs := runLinWorkload(t, c, seed, 3, 50, 16, 3*time.Millisecond)
	close(done)
	sched.Wait()

	if w := windows.Load(); w < 2 {
		t.Fatalf("only %d outage windows completed — schedule too short to mean anything", w)
	}
	if errs != 0 {
		t.Fatalf("%d client errors under rolling single-AZ outages, want 0", errs)
	}
	if d := sumDemotions(c); d != 0 {
		t.Fatalf("%d demotions under rolling single-AZ outages, want 0", d)
	}
	if ok, badKey := lin.Check(lin.RegisterModel{}, history); !ok {
		t.Fatalf("rolling-outage history not linearizable (key %s, %d ops)", badKey, len(history))
	}
}

// TestChaosAsymmetricPartition: the nastiest partition shape — the
// primary still reaches its clients but loses its path to the transaction
// log (the durability quorum). It keeps accepting connections while unable
// to commit; the healthy replica campaigns through the log and takes over.
// The nemesis repeatedly partitions whichever node is currently primary
// for longer than the backoff window, then heals it. Every acknowledged
// write must come from a node that actually reached quorum, so the
// recorded history stays linearizable; the fenced ex-primaries must show
// up as demotions.
func TestChaosAsymmetricPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	seed := chaosSeed(t)
	_, _, c := chaosCluster(t, seed)

	done := make(chan struct{})
	var windows atomic.Int64
	var sched sync.WaitGroup
	sched.Add(1)
	go func() {
		defer sched.Done()
		rng := rand.New(rand.NewSource(seed ^ 0x517a))
		for {
			// Pick a shard's current primary and cut it off from the log
			// for longer than the 140ms backoff, so the replica can win.
			shards := c.Shards()
			sh := shards[rng.Intn(len(shards))]
			p, ok := sh.Primary()
			if !ok {
				select {
				case <-done:
					return
				case <-time.After(10 * time.Millisecond):
				}
				continue
			}
			part := c.nodeFaults(p.ID())
			setLevel(part, faultpoint.SiteNodePartition, true)
			select {
			case <-done:
				setLevel(part, faultpoint.SiteNodePartition, false)
				return
			case <-time.After(time.Duration(200+rng.Intn(100)) * time.Millisecond):
			}
			setLevel(part, faultpoint.SiteNodePartition, false)
			windows.Add(1)
			select {
			case <-done:
				return
			case <-time.After(time.Duration(100+rng.Intn(100)) * time.Millisecond):
			}
		}
	}()

	history, errs := runLinWorkload(t, c, seed, 3, 60, 16, 15*time.Millisecond)
	close(done)
	sched.Wait()

	if w := windows.Load(); w < 2 {
		t.Fatalf("only %d partition windows completed — schedule too short to mean anything", w)
	}
	// Unlike AZ outages, asymmetric partitions MUST cause leadership churn:
	// each partitioned primary is fenced out and demotes.
	if d := sumDemotions(c); d == 0 {
		t.Fatal("no demotions — the partition never actually deposed a primary")
	}
	if ok, badKey := lin.Check(lin.RegisterModel{}, history); !ok {
		t.Fatalf("asymmetric-partition history not linearizable (key %s, %d ops)", badKey, len(history))
	}
	t.Logf("asymmetric partitions: %d windows, %d ops, %d ambiguous, %d demotions",
		windows.Load(), len(history), errs, sumDemotions(c))
}

// TestChaosFlakyAZStorm: every AZ replica drops acks with seeded
// probability 0.25, so ~16%% of appends transiently miss quorum and must
// be absorbed by the nodes' retry loops. Individual client errors are
// tolerated (ambiguous), but the history must stay linearizable and the
// retry counters must show the storm was actually absorbed.
func TestChaosFlakyAZStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	seed := chaosSeed(t)
	_, faults, c := chaosCluster(t, seed)

	for _, site := range zoneSites {
		faults.SetPlan(site, 0.25, 0, faultpoint.Error)
	}
	history, errs := runLinWorkload(t, c, seed, 3, 40, 16, 2*time.Millisecond)
	for _, site := range zoneSites {
		faults.SetPlan(site, 0, 0)
	}

	var retried int64
	for _, sh := range c.Shards() {
		for _, n := range sh.Nodes() {
			st := n.Stats()
			retried += st.AppendsRetried.Load() + st.RenewalsRetried.Load()
		}
	}
	if retried == 0 {
		t.Fatal("flaky storm produced zero retries — fault injection not exercised")
	}
	if ok, badKey := lin.Check(lin.RegisterModel{}, history); !ok {
		t.Fatalf("flaky-storm history not linearizable (key %s, %d ops)", badKey, len(history))
	}
	t.Logf("flaky storm: %d ops, %d ambiguous, %d retries absorbed", len(history), errs, retried)
}
