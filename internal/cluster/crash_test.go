package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/lin"
	"memorydb/internal/netsim"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// Crash-restart recovery harness (tentpole). Where chaos_test.go fails
// the *log service's* AZ replicas, these schedules kill *nodes*: a
// seedable fault site freezes a process at an exact instruction on the
// write path (mid-append, mid-flush, inside the committed-but-unacked
// window), and the harness then either restarts it — a fresh process
// that must rebuild purely from S3 + the log — or resurrects it as a
// zombie that must be fenced. The invariants checked are the paper's
// §5–§7.2.1 claims: zero acknowledged writes lost, linearizable
// histories, zombies never acknowledge post-fencing writes, and torn or
// corrupt snapshots never block recovery.

// crashSeed returns the seed the crash schedule runs under. The CI gate
// (scripts/check.sh) runs the CrashRestart tests at two fixed seeds via
// MEMORYDB_CRASH_SEED so node-death regressions reproduce exactly.
func crashSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("MEMORYDB_CRASH_SEED")
	if s == "" {
		return 7
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad MEMORYDB_CRASH_SEED %q: %v", s, err)
	}
	return v
}

// crashCluster provisions a 1-shard, 3-node cluster with per-node fault
// registries enabled, plus its snapshot manager and the log service's own
// fault registry (the txlog.* sites — seal, trim, corrupt-record — live on
// the shared service, not on any node). Segments are kept small so every
// schedule rotates, seals and can trim.
func crashCluster(t *testing.T, seed int64) (*Cluster, *snapshot.Manager, *faultpoint.Registry) {
	t.Helper()
	svcFaults := faultpoint.New(seed ^ 0x109)
	svc := txlog.NewService(txlog.Config{
		Clock:          clock.NewReal(),
		CommitLatency:  netsim.NewUniform(100*time.Microsecond, time.Millisecond, seed),
		SegmentEntries: 16,
		Faults:         svcFaults,
	})
	snaps := snapshot.NewManager(s3.New(s3.WithFaults(svcFaults)), "snaps")
	c, err := New(Config{
		Name: "crash", NumShards: 1, ReplicasPerShard: 2,
		LogService: svc, Snapshots: snaps,
		Lease: 100 * time.Millisecond, Backoff: 140 * time.Millisecond,
		RenewEvery:    25 * time.Millisecond,
		ChecksumEvery: 16, RetrySeed: seed,
		FaultSeed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	dumpTimelineOnFailure(t, c)
	if _, err := c.Shards()[0].WaitForPrimary(c.Clock(), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	return c, snaps, svcFaults
}

// nodeDo issues a raw command directly at one node (bypassing routing),
// the way the harness pokes zombies.
func nodeDo(ctx context.Context, c *Cluster, nodeID string, args ...string) (isOK bool, isErr bool, err error) {
	_, n, ok := c.findNode(nodeID)
	if !ok {
		return false, false, fmt.Errorf("no node %q", nodeID)
	}
	argv := make([][]byte, len(args))
	for i, a := range args {
		argv[i] = []byte(a)
	}
	v, err := n.Do(ctx, argv)
	if err != nil {
		return false, false, err
	}
	return strings.EqualFold(v.Text(), "OK"), v.IsError(), nil
}

// waitFrozen waits until nodeID crash-freezes (its armed fault fired) or
// the deadline passes; reports whether it froze.
func waitFrozen(c *Cluster, nodeID string, within time.Duration) bool {
	_, n, ok := c.findNode(nodeID)
	return ok && waitNode(n, within, n.Frozen)
}

// waitNode waits on n's change signal until cond holds, and reports false
// if it does not within the deadline. cond reads what core.Node.Changed
// covers: role, epoch, freeze, upgrade stall, stop.
func waitNode(n *core.Node, within time.Duration, cond func() bool) bool {
	deadline := time.NewTimer(within)
	defer deadline.Stop()
	for {
		changed := n.Changed()
		if cond() {
			return true
		}
		select {
		case <-changed:
		case <-deadline.C:
			return cond()
		}
	}
}

// waitApplied waits until n has applied the log through seq.
func waitApplied(t *testing.T, n *core.Node, seq uint64, within time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	if err := n.WaitApplied(ctx, seq); err != nil {
		t.Fatalf("node %s applied %d, want >= %d: %v", n.ID(), n.AppliedSeq(), seq, err)
	}
}

// TestCrashRestartRecovery is the randomized fixed-seed schedule: while
// paced clients run a lin-recorded SET/GET workload, the schedule
// repeatedly crashes the primary at a rotating fault site and recovers it
// by restart (fresh process, resync from durables) or resurrection
// (zombie, must be fenced); it then injects corrupt and torn snapshots
// and restarts the primary through them. At the end: every registered
// fault site was hit, every acknowledged write survived, the history is
// linearizable, and no zombie acknowledged a post-fencing write.
func TestCrashRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short mode")
	}
	seed := crashSeed(t)
	c, snaps, svcFaults := crashCluster(t, seed)
	sh := c.Shards()[0]
	initialIDs := make([]string, 0, 3)
	for _, n := range sh.Nodes() {
		initialIDs = append(initialIDs, n.ID())
	}

	// Workload: lin-recorded, acked-write-tracked SET/GET clients.
	rec := lin.NewRecorder()
	var ackMu sync.Mutex
	acked := make(map[string]bool)             // keys with ≥1 acknowledged SET
	issued := make(map[string]map[string]bool) // key → every value ever sent
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(clientID int) {
			defer writers.Done()
			gen := lin.NewGenerator(lin.GenConfig{Seed: seed + int64(clientID), Keys: 64, WriteRatio: 0.5})
			client := c.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(5 * time.Millisecond)
				key, in, args := gen.Next(clientID*1000000 + i)
				if in.Kind == "set" {
					ackMu.Lock()
					if issued[key] == nil {
						issued[key] = make(map[string]bool)
					}
					issued[key][in.Value] = true
					ackMu.Unlock()
				}
				cctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
				call := rec.Invoke()
				v, err := client.Do(cctx, args...)
				cancel()
				out := lin.Output{}
				if err != nil || v.IsError() {
					out.Err = true
				} else {
					if in.Kind == "get" {
						out.Value = v.Text()
					} else {
						ackMu.Lock()
						acked[key] = true
						ackMu.Unlock()
					}
				}
				rec.Complete(clientID, key, in, out, call)
			}
		}(w)
	}

	// Crash storm: rotate the crash site across every core fault site so
	// each one kills a primary at least once per seed; recover by restart
	// or resurrection per the seeded coin.
	rng := rand.New(rand.NewSource(seed))
	coreSites := []string{
		faultpoint.SiteAppendPre, faultpoint.SiteAppendPost,
		faultpoint.SiteFlushPre, faultpoint.SiteFlushPost,
		faultpoint.SiteReplyRelease, faultpoint.SiteRenew,
	}
	kills, restarts, zombies := 0, 0, 0
	for round := 0; round < len(coreSites); round++ {
		p, err := sh.WaitForPrimary(c.Clock(), 5*time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		pid := p.ID()
		c.nodeFaults(pid).Arm(coreSites[round], faultpoint.Crash, rng.Intn(3))
		if !waitFrozen(c, pid, 3*time.Second) {
			// Site not reached in time (e.g. the node demoted first); the
			// armed fault stays live for this identity and fires later.
			continue
		}
		kills++
		// A killed primary must be replaced by election: wait for a
		// different node to take over before deciding recovery.
		np, err := sh.WaitForPrimary(c.Clock(), 5*time.Second)
		if err != nil {
			t.Fatalf("round %d: no failover after killing %s: %v", round, pid, err)
		}
		if np.ID() == pid {
			t.Fatalf("round %d: frozen node %s still routed as primary", round, pid)
		}
		if rng.Intn(2) == 0 {
			if _, err := c.Restart(pid); err != nil {
				t.Fatalf("round %d: restart %s: %v", round, pid, err)
			}
			restarts++
		} else {
			if err := c.Resurrect(pid); err != nil {
				t.Fatalf("round %d: resurrect %s: %v", round, pid, err)
			}
			zombies++
			// The zombie's lease expired while it was dead (freeze span ≥
			// backoff > lease): a write aimed straight at it must never be
			// acknowledged.
			zctx, zcancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			isOK, _, _ := nodeDo(zctx, c, pid, "SET", "zombie-probe", fmt.Sprintf("r%d", round))
			zcancel()
			if isOK {
				t.Fatalf("round %d: zombie %s acknowledged a post-fencing write", round, pid)
			}
		}
	}

	// Snapshot leg: a good snapshot, then a bit-rotted build, then a torn
	// upload — each at a fresh log position — and a primary restart that
	// must fall back through the damaged versions.
	cpFaults := faultpoint.New(seed ^ 0x5eed)
	cp := &snapshot.Builder{Manager: snaps, Log: sh.Log, ShardID: sh.ID, EngineVersion: 1, Faults: cpFaults}
	ctx := context.Background()
	client := c.Client()
	advance := func(tag string) {
		for i := 0; i < 4; i++ {
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			client.Do(cctx, "SET", fmt.Sprintf("snapleg-%s-%d", tag, i), tag)
			cancel()
		}
	}
	advance("good")
	if _, err := cp.Full(ctx); err != nil {
		t.Fatalf("good snapshot: %v", err)
	}
	advance("rot")
	cpFaults.Arm(faultpoint.SiteSnapBuild, faultpoint.Corrupt, 0)
	if _, err := cp.Full(ctx); err != nil {
		t.Fatalf("corrupt-build snapshot: %v", err)
	}
	advance("torn")
	cpFaults.Arm(faultpoint.SiteSnapUpload, faultpoint.Corrupt, 0)
	if _, err := cp.Full(ctx); err != nil {
		t.Fatalf("torn-upload snapshot: %v", err)
	}
	p, err := sh.WaitForPrimary(c.Clock(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(p.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restart(p.ID()); err != nil {
		t.Fatal(err)
	}

	// Builder leg: the forkless checkpointer tails the same log through
	// the off-box fault registry. An armed crash kills it mid-delta (its
	// materialized copy dies; the next tick re-bootstraps from the durable
	// chain), then enough cadences run to emit deltas and a chain-resetting
	// compaction — touching every snapshot.delta.*/snapshot.compact/
	// builder.lag site under this seed.
	builder := &snapshot.Builder{
		Manager: snaps, Log: sh.Log, ShardID: sh.ID, EngineVersion: 1,
		DeltaInterval: 4, CompactEvery: 2, Faults: cpFaults,
	}
	cpFaults.Arm(faultpoint.SiteDeltaUpload, faultpoint.Crash, 0)
	builderCrashed := false
	// The snapshot leg's three fulls already count as compactions.
	fulls := snaps.Health(sh.ID).Compactions.Load()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline) &&
		snaps.Health(sh.ID).Compactions.Load() == fulls; {
		advance("builder")
		if err := builder.Tick(ctx); errors.Is(err, snapshot.ErrBuilderCrashed) {
			builderCrashed = true
		}
	}
	if !builderCrashed {
		t.Fatal("armed delta-upload crash never fired on the builder")
	}
	if builder.Stats().Rebootstraps == 0 {
		t.Fatal("crashed builder never re-bootstrapped from the durable chain")
	}
	if snaps.Health(sh.ID).DeltasEmitted.Load() == 0 || snaps.Health(sh.ID).Compactions.Load() == fulls {
		t.Fatalf("builder leg produced %d deltas, %d compactions — want both nonzero",
			snaps.Health(sh.ID).DeltasEmitted.Load(), snaps.Health(sh.ID).Compactions.Load()-fulls)
	}

	// Trim leg: the pass after the compaction rehearses it and drops every
	// sealed segment it covers — exercising txlog.trim.* and forcing any
	// tailer still below the base through the re-bootstrap path rather
	// than a demotion.
	if err := builder.Tick(ctx); err != nil {
		t.Fatalf("trim pass: %v", err)
	}
	if sh.Log.SegmentStats().Trimmed == 0 {
		t.Error("trim leg dropped no segments — segment threshold too large for the workload?")
	}

	close(stop)
	writers.Wait()

	// Settle: restart anything still frozen, then require a primary.
	for _, n := range sh.Nodes() {
		if n.Frozen() {
			if _, err := c.Restart(n.ID()); err != nil {
				t.Fatalf("settling restart %s: %v", n.ID(), err)
			}
		}
	}
	if _, err := sh.WaitForPrimary(c.Clock(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// (1) Schedule actually exercised node death, both recovery paths
	// represented across the two CI seeds by construction of the coin.
	if kills < 3 {
		t.Fatalf("schedule too tame: only %d crash-kills landed", kills)
	}
	t.Logf("storm: %d kills (%d restarts, %d zombies)", kills, restarts, zombies)

	// (2) Torn/corrupt snapshots were detected and skipped, not fatal:
	// the restarted primary recovered (we have a primary serving) and the
	// skip counter saw both damaged versions.
	if torn := snaps.TornDetected(); torn < 2 {
		t.Fatalf("TornDetected = %d, want >= 2 (bit-rot + torn upload)", torn)
	}

	// (3) Every registered fault site was hit at least once under this
	// seed: core sites across the per-node registries, snapshot sites on
	// the off-box registry, txlog sites (seal/trim/corrupt-record) on the
	// shared log service's registry.
	for _, site := range faultpoint.AllSites() {
		var hits int64
		for _, id := range initialIDs {
			hits += c.nodeFaults(id).Hits(site)
		}
		hits += cpFaults.Hits(site)
		hits += svcFaults.Hits(site)
		if hits == 0 {
			t.Errorf("fault site %s never exercised", site)
		}
	}

	// (4) Zero acknowledged writes lost: every key with an acknowledged
	// SET must read back one of the values that was actually issued for
	// it (never nil, never garbage).
	ackMu.Lock()
	keys := make([]string, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	ackMu.Unlock()
	if len(keys) == 0 {
		t.Fatal("no writes were acknowledged during the storm")
	}
	lost := 0
	for _, k := range keys {
		cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		v, err := client.Do(cctx, "GET", k)
		cancel()
		if err != nil || v.Null || v.IsError() {
			lost++
			t.Errorf("acknowledged key %s lost: %v %v", k, v, err)
			continue
		}
		if !issued[k][v.Text()] {
			t.Errorf("key %s holds %q, a value never issued for it", k, v.Text())
		}
	}
	if lost > 0 {
		t.Fatalf("%d/%d acknowledged keys lost across crash-restarts", lost, len(keys))
	}

	// (5) The full concurrent history is linearizable.
	history := rec.History()
	if ok, badKey := lin.Check(lin.RegisterModel{}, history); !ok {
		t.Fatalf("crash-restart history not linearizable (key %s, %d ops)", badKey, len(history))
	}

	// (6) Trimming never violated its safety invariant: no
	// node ever found the log trimmed past the newest usable snapshot.
	for _, n := range sh.Nodes() {
		if gaps := n.Stats().LogGapRetries.Load(); gaps != 0 {
			t.Errorf("node %s hit %d trimmed-gap retries — builder trim unsafe", n.ID(), gaps)
		}
	}
	t.Logf("crash harness: %d ops, %d acked keys intact, %d torn snapshots skipped",
		len(history), len(keys), snaps.TornDetected())
}

// TestCrashRestartDurableUnacknowledged pins down the nastiest window: a
// primary killed after its batch reached quorum but before any reply was
// released. The client sees a timeout (ambiguous), yet the entry is
// durable — so after a restart the write MUST be present: durability is
// decided by the log, not by whether the dead process got to say "OK".
func TestCrashRestartDurableUnacknowledged(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short mode")
	}
	seed := crashSeed(t)
	c, _, _ := crashCluster(t, seed)
	sh := c.Shards()[0]
	p, err := sh.WaitForPrimary(c.Clock(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	client := c.Client()

	// Arm: crash inside the committed-but-unacknowledged window.
	c.nodeFaults(p.ID()).Arm(faultpoint.SiteFlushPost, faultpoint.Crash, 0)
	cctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	v, err := client.Do(cctx, "SET", "durable-unacked", "v1")
	cancel()
	if err == nil && !v.IsError() && strings.EqualFold(v.Text(), "OK") {
		t.Fatal("write was acknowledged despite the primary dying pre-release")
	}
	if !waitFrozen(c, p.ID(), 2*time.Second) {
		t.Fatalf("primary %s never hit the armed flush.post crash", p.ID())
	}
	if _, err := c.Restart(p.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.WaitForPrimary(c.Clock(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	gctx, gcancel := context.WithTimeout(context.Background(), 2*time.Second)
	got, err := client.Do(gctx, "GET", "durable-unacked")
	gcancel()
	if err != nil {
		t.Fatal(err)
	}
	if got.Text() != "v1" {
		t.Fatalf("durable-but-unacknowledged write lost: GET = %q, want %q", got.Text(), "v1")
	}
}

// TestCrashRestartZombieFencing is the deterministic zombie schedule: the
// primary is killed, a successor is elected and takes writes, then the
// old primary resumes in place with all its stale beliefs. It must never
// acknowledge a write, and the successor's data must win.
func TestCrashRestartZombieFencing(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short mode")
	}
	seed := crashSeed(t)
	c, _, _ := crashCluster(t, seed)
	sh := c.Shards()[0]
	client := c.Client()
	ctx := context.Background()

	p1, err := sh.WaitForPrimary(c.Clock(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	if v, err := client.Do(cctx, "SET", "fence-k", "v1"); err != nil || v.IsError() {
		t.Fatalf("seed write: %v %v", v, err)
	}
	cancel()

	if err := c.Kill(p1.ID()); err != nil {
		t.Fatal(err)
	}
	p2, err := sh.WaitForPrimary(c.Clock(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p2.ID() == p1.ID() {
		t.Fatalf("frozen primary %s still routed", p1.ID())
	}
	cctx, cancel = context.WithTimeout(ctx, 2*time.Second)
	if v, err := client.Do(cctx, "SET", "fence-k", "v2"); err != nil || v.IsError() {
		t.Fatalf("post-failover write: %v %v", v, err)
	}
	cancel()

	// Wake the zombie. Its lease expired at least a full backoff ago; any
	// direct write must be rejected (or time out), never acknowledged.
	if err := c.Resurrect(p1.ID()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		zctx, zcancel := context.WithTimeout(ctx, 200*time.Millisecond)
		isOK, _, _ := nodeDo(zctx, c, p1.ID(), "SET", "fence-k", "zombie")
		zcancel()
		if isOK {
			t.Fatalf("zombie %s acknowledged write %d after fencing", p1.ID(), i)
		}
	}
	// The shard's data is the successor's view.
	gctx, gcancel := context.WithTimeout(ctx, 2*time.Second)
	got, err := client.Do(gctx, "GET", "fence-k")
	gcancel()
	if err != nil || got.Text() != "v2" {
		t.Fatalf("GET fence-k = %q (%v), want v2", got.Text(), err)
	}
	// The zombie must have stepped down (demotion-by-fencing or expired
	// lease), not kept believing.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if p1.Stats().Demotions.Load() > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("resurrected zombie %s never demoted", p1.ID())
}

// TestCrashRestartTornSnapshotFallback drives the §7.2.1 restore gates:
// with a good snapshot buried under a bit-rotted one and a torn one, a
// killed-and-restarted primary must skip the damaged versions (counting
// them) and recover everything from the good snapshot plus log replay.
func TestCrashRestartTornSnapshotFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short mode")
	}
	seed := crashSeed(t)
	c, snaps, _ := crashCluster(t, seed)
	sh := c.Shards()[0]
	client := c.Client()
	ctx := context.Background()

	set := func(k, v string) {
		t.Helper()
		cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		if rv, err := client.Do(cctx, "SET", k, v); err != nil || rv.IsError() {
			t.Fatalf("SET %s: %v %v", k, rv, err)
		}
	}

	cpFaults := faultpoint.New(seed)
	cp := &snapshot.Builder{Manager: snaps, Log: sh.Log, ShardID: sh.ID, EngineVersion: 1, Faults: cpFaults}

	set("torn-a", "1")
	if _, err := cp.Full(ctx); err != nil {
		t.Fatalf("good run: %v", err)
	}
	set("torn-b", "2")
	cpFaults.Arm(faultpoint.SiteSnapBuild, faultpoint.Corrupt, 0)
	if _, err := cp.Full(ctx); err != nil {
		t.Fatalf("bit-rot run: %v", err)
	}
	set("torn-c", "3")
	cpFaults.Arm(faultpoint.SiteSnapUpload, faultpoint.Corrupt, 0)
	if _, err := cp.Full(ctx); err != nil {
		t.Fatalf("torn run: %v", err)
	}

	p, err := sh.WaitForPrimary(c.Clock(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(p.ID()); err != nil {
		t.Fatal(err)
	}
	restarted, err := c.Restart(p.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.WaitForPrimary(c.Clock(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// The restarted node's bootstrap resync walked past both damaged
	// versions; give its workloop a moment to finish the restore.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && restarted.Stats().TornSnapshotsDetected.Load() < 2 {
		time.Sleep(5 * time.Millisecond)
	}
	if got := restarted.Stats().TornSnapshotsDetected.Load(); got < 2 {
		t.Fatalf("restarted node TornSnapshotsDetected = %d, want >= 2", got)
	}
	for k, want := range map[string]string{"torn-a": "1", "torn-b": "2", "torn-c": "3"} {
		gctx, gcancel := context.WithTimeout(ctx, 2*time.Second)
		v, err := client.Do(gctx, "GET", k)
		gcancel()
		if err != nil || v.Text() != want {
			t.Fatalf("after torn-snapshot recovery GET %s = %q (%v), want %q", k, v.Text(), err, want)
		}
	}
	// The INFO surface reports the skips.
	ictx, icancel := context.WithTimeout(ctx, 2*time.Second)
	info, err := client.Do(ictx, "INFO")
	icancel()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.Text(), "torn_snapshots_detected:") {
		t.Fatal("INFO missing torn_snapshots_detected under # Robustness")
	}
}

// TestCrashRestartVerifyQuarantine: when the builder uploads a corrupt
// snapshot, its restore rehearsal on the next pass must quarantine it
// (delete, so no restore can use it), trim nothing on its authority, and
// raise an alarm on the cluster's merged timeline.
func TestCrashRestartVerifyQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short mode")
	}
	seed := crashSeed(t)
	c, snaps, _ := crashCluster(t, seed)
	sh := c.Shards()[0]
	client := c.Client()
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		if v, err := client.Do(cctx, "SET", fmt.Sprintf("q%d", i), "x"); err != nil || v.IsError() {
			t.Fatalf("SET q%d: %v %v", i, v, err)
		}
		cancel()
	}

	cpFaults := faultpoint.New(seed)
	cpFaults.Arm(faultpoint.SiteSnapBuild, faultpoint.Corrupt, 0)
	cp := &snapshot.Builder{Manager: snaps, Log: sh.Log, ShardID: sh.ID, EngineVersion: 1, Faults: cpFaults}
	if _, err := cp.Full(ctx); err != nil {
		t.Fatalf("corrupt-build snapshot: %v", err)
	}
	if err := cp.Tick(ctx); err != nil {
		t.Fatal(err)
	}

	if trimmed, rehearsals := sh.Log.SegmentStats().Trimmed, cp.Stats().Rehearsals; trimmed != 0 || rehearsals != 1 {
		t.Fatalf("%d segments trimmed over %d rehearsals, want 0 over 1", trimmed, rehearsals)
	}
	var alarms []string
	for _, e := range c.MergedTimeline() {
		if e.Kind == trace.EvAlarm {
			alarms = append(alarms, e.Detail)
		}
	}
	if len(alarms) != 1 || !strings.Contains(alarms[0], "verification failed") {
		t.Fatalf("alarms on the merged timeline = %q, want one verification failure", alarms)
	}
	// Quarantined: the corrupt version is gone, so a restore sees a clean
	// (empty) snapshot store and replays the log — never the bad bytes.
	if chain, ok, err := snaps.Resolve(sh.ID, false); err != nil || ok || chain.Skipped != 0 {
		t.Fatalf("corrupt snapshot not quarantined: skipped=%d ok=%v err=%v", chain.Skipped, ok, err)
	}
}

// TestCrashRestartMidSealTrimStorm turns the segment lifecycle itself into
// the fault surface: while paced writers run and primaries are killed and
// restarted, every seal and trim attempt has a seeded chance of erroring
// or stalling (txlog.seal.pre / txlog.trim.pre). Deferred lifecycle steps
// must retry to completion once the faults clear, acknowledged writes must
// survive, and the builder's trims must never create a gap a tailer can
// fall into.
func TestCrashRestartMidSealTrimStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short mode")
	}
	seed := crashSeed(t)
	c, snaps, svcFaults := crashCluster(t, seed)
	sh := c.Shards()[0]
	ctx := context.Background()
	client := c.Client()

	// Every seal/trim attempt errors or stalls with probability 0.3 for
	// the duration of the storm.
	svcFaults.SetPlan(faultpoint.SiteLogSealPre, 0.3, 2*time.Millisecond, faultpoint.Error, faultpoint.Delay)
	svcFaults.SetPlan(faultpoint.SiteLogTrimPre, 0.3, 2*time.Millisecond, faultpoint.Error, faultpoint.Delay)

	// Unique-key writers: an acknowledged key maps to exactly one value,
	// so the post-storm audit is exact.
	var ackMu sync.Mutex
	acked := make(map[string]string)
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(id int) {
			defer writers.Done()
			cl := c.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(3 * time.Millisecond)
				k := fmt.Sprintf("storm-%d-%d", id, i)
				v := fmt.Sprintf("v%d", i)
				cctx, cancel := context.WithTimeout(ctx, 400*time.Millisecond)
				rv, err := cl.Do(cctx, "SET", k, v)
				cancel()
				if err == nil && !rv.IsError() {
					ackMu.Lock()
					acked[k] = v
					ackMu.Unlock()
				}
			}
		}(w)
	}

	// Storm: snapshot + trim every round so trimming runs against the
	// faulty lifecycle, with two primary kill/restart cycles in the middle
	// of it.
	cp := &snapshot.Builder{Manager: snaps, Log: sh.Log, ShardID: sh.ID, EngineVersion: 1}
	for round := 0; round < 6; round++ {
		time.Sleep(120 * time.Millisecond)
		if _, err := cp.Full(ctx); err != nil {
			t.Fatalf("round %d snapshot: %v", round, err)
		}
		if err := cp.Tick(ctx); err != nil {
			t.Fatalf("round %d trim pass: %v", round, err)
		}
		if round == 1 || round == 3 {
			p, err := sh.WaitForPrimary(c.Clock(), 5*time.Second)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if err := c.Kill(p.ID()); err != nil {
				t.Fatal(err)
			}
			np, err := sh.WaitForPrimary(c.Clock(), 5*time.Second)
			if err != nil {
				t.Fatalf("round %d: no failover after killing %s: %v", round, p.ID(), err)
			}
			if np.ID() == p.ID() {
				t.Fatalf("round %d: frozen node %s still routed as primary", round, p.ID())
			}
			if _, err := c.Restart(p.ID()); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	writers.Wait()
	svcFaults.SetPlan(faultpoint.SiteLogSealPre, 0, 0)
	svcFaults.SetPlan(faultpoint.SiteLogTrimPre, 0, 0)
	if _, err := sh.WaitForPrimary(c.Clock(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	set := func(k, v string) {
		t.Helper()
		cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		if rv, err := client.Do(cctx, "SET", k, v); err != nil || rv.IsError() {
			t.Fatalf("SET %s: %v %v", k, rv, err)
		}
	}

	// Deterministic deferred-seal leg: the next seal attempt errors, the
	// rotation that follows must still end with the segment sealed by a
	// later retry.
	svcFaults.Arm(faultpoint.SiteLogSealPre, faultpoint.Error, 0)
	for i := 0; i < 20; i++ {
		set(fmt.Sprintf("sealpoke-%d", i), "x")
	}

	// Deterministic deferred-trim leg: an armed error aborts the whole
	// Trim call with no state change.
	base := sh.Log.TrimBase()
	svcFaults.Arm(faultpoint.SiteLogTrimPre, faultpoint.Error, 0)
	if n := sh.Log.Trim(sh.Log.CommittedTail()); n != 0 {
		t.Fatalf("trim with armed error dropped %d segments", n)
	}
	if got := sh.Log.TrimBase(); got != base {
		t.Fatalf("deferred trim moved the base: %v -> %v", base, got)
	}

	// Once the faults clear, one clean snapshot+trim pass catches up.
	if _, err := cp.Full(ctx); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	if err := cp.Tick(ctx); err != nil {
		t.Fatalf("final trim pass: %v", err)
	}

	st := sh.Log.SegmentStats()
	if st.Sealed == 0 || st.Trimmed == 0 {
		t.Fatalf("lifecycle never completed under faults: sealed=%d trimmed=%d", st.Sealed, st.Trimmed)
	}
	if st.SealsDeferred == 0 || st.TrimsDeferred == 0 {
		t.Fatalf("fault plan never deferred a lifecycle step: sealsDeferred=%d trimsDeferred=%d",
			st.SealsDeferred, st.TrimsDeferred)
	}

	// Zero acknowledged writes lost through the deferred-lifecycle storm.
	ackMu.Lock()
	keys := make(map[string]string, len(acked))
	for k, v := range acked {
		keys[k] = v
	}
	ackMu.Unlock()
	if len(keys) == 0 {
		t.Fatal("no writes were acknowledged during the storm")
	}
	for k, want := range keys {
		cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		v, err := client.Do(cctx, "GET", k)
		cancel()
		if err != nil || v.Text() != want {
			t.Fatalf("acknowledged key %s = %q (%v), want %q", k, v.Text(), err, want)
		}
	}
	// Trim safety held throughout: no tailer ever found the log trimmed
	// past the newest usable snapshot.
	for _, n := range sh.Nodes() {
		if gaps := n.Stats().LogGapRetries.Load(); gaps != 0 {
			t.Errorf("node %s hit %d trimmed-gap retries — builder trim unsafe", n.ID(), gaps)
		}
	}
	t.Logf("seal/trim storm: %d acked keys intact, stats %+v", len(keys), st)
}

// TestCrashRestartTailerRebootstrapAfterTrim pins the lagging-tailer path:
// a replica frozen below the trim point must, on waking, re-bootstrap from
// the snapshot (counted in reader_rebootstraps) and catch up — never
// demote, never serve a gap.
func TestCrashRestartTailerRebootstrapAfterTrim(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short mode")
	}
	seed := crashSeed(t)
	c, snaps, _ := crashCluster(t, seed)
	sh := c.Shards()[0]
	client := c.Client()
	ctx := context.Background()

	reps := sh.Replicas()
	if len(reps) == 0 {
		t.Fatal("no replica to freeze")
	}
	lag := reps[0]
	// Freeze it only once it is tailing: a replica frozen before its first
	// restore would, on waking, restore straight from the new snapshot and
	// never exercise the tailer path this test pins.
	if err := waitCaughtUp(c.Clock(), sh, lag); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if err := c.Kill(lag.ID()); err != nil {
		t.Fatal(err)
	}
	frozenAt := lag.AppliedSeq()

	// Advance the log several whole segments past the frozen tailer, then
	// snapshot and trim everything the snapshot covers.
	for i := 0; i < 80; i++ {
		cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		if v, err := client.Do(cctx, "SET", fmt.Sprintf("lag-%d", i), fmt.Sprintf("v%d", i)); err != nil || v.IsError() {
			t.Fatalf("SET lag-%d: %v %v", i, v, err)
		}
		cancel()
	}
	tail := sh.Log.CommittedTail()
	cp := &snapshot.Builder{Manager: snaps, EngineVersion: 1, Log: sh.Log, ShardID: sh.ID}
	if _, err := cp.Full(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cp.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if sh.Log.SegmentStats().Trimmed == 0 {
		t.Fatal("setup: nothing trimmed")
	}
	if base := sh.Log.TrimBase().Seq; base <= frozenAt {
		t.Fatalf("setup: trim base %d did not pass the frozen tailer at %d", base, frozenAt)
	}

	// Wake the replica. Its reader is below the trim base, so the next
	// poll fails with ErrTrimmed — the fatal that must turn into a
	// snapshot re-bootstrap, not a demotion loop.
	if err := c.Resurrect(lag.ID()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && lag.Stats().ReaderRebootstraps.Load() == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if got := lag.Stats().ReaderRebootstraps.Load(); got == 0 {
		t.Fatal("woken replica never re-bootstrapped from snapshot")
	}
	waitApplied(t, lag, tail.Seq, time.Until(deadline))
	// The re-bootstrapped replica serves the full dataset locally.
	v, _, err := lag.DoRead(ctx, [][]byte{[]byte("GET"), []byte("lag-79")}, core.ReadOpts{})
	if err != nil || v.Text() != "v79" {
		t.Fatalf("replica GET lag-79 = %q (%v), want v79", v.Text(), err)
	}
	if role := lag.Role(); role != election.RoleReplica {
		t.Fatalf("woken replica role = %v, want replica", role)
	}
	if gaps := lag.Stats().LogGapRetries.Load(); gaps != 0 {
		t.Fatalf("replica hit %d trimmed-gap retries — trim raced past the newest snapshot", gaps)
	}
}

// TestCrashRestartCorruptSegmentRecovery covers both halves of the
// bit-rot contract. Damage BELOW the newest snapshot: a segment whose
// footer rotted is quarantined by the log service's restart integrity
// pass, and a killed-and-restarted primary recovers everything from the
// snapshot plus the intact suffix. Damage ABOVE every snapshot:
// unrecoverable by construction, so the replay path must fail loudly with
// ErrCorruptSegment rather than serve damaged bytes.
func TestCrashRestartCorruptSegmentRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short mode")
	}
	seed := crashSeed(t)
	c, snaps, svcFaults := crashCluster(t, seed)
	sh := c.Shards()[0]
	client := c.Client()
	ctx := context.Background()

	set := func(k, v string) {
		t.Helper()
		cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		if rv, err := client.Do(cctx, "SET", k, v); err != nil || rv.IsError() {
			t.Fatalf("SET %s: %v %v", k, rv, err)
		}
	}
	get := func(k string) string {
		t.Helper()
		cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		v, err := client.Do(cctx, "GET", k)
		if err != nil || v.IsError() {
			t.Fatalf("GET %s: %v %v", k, v, err)
		}
		return v.Text()
	}

	// The next segment to seal gets a footer its records no longer match.
	// Every record keeps its CRC, so replicas and the builder read it as
	// usual: the rot sits at rest below the snapshot taken next.
	svcFaults.Arm(faultpoint.SiteLogSealPre, faultpoint.Corrupt, 0)
	for i := 0; i < 60; i++ {
		set(fmt.Sprintf("cor-%d", i), fmt.Sprintf("v%d", i))
	}
	cp := &snapshot.Builder{Manager: snaps, Log: sh.Log, ShardID: sh.ID, EngineVersion: 1}
	meta, err := cp.Full(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The primary dies and the log service restarts under it: the restart
	// integrity pass finds the rotten footer and quarantines the segment.
	p, err := sh.WaitForPrimary(c.Clock(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(p.ID()); err != nil {
		t.Fatal(err)
	}
	if q, _ := sh.Log.RecoverChain(); q < 1 {
		t.Fatalf("restart pass quarantined %d segments, want >= 1", q)
	}
	var dmg uint64
	for seq := sh.Log.TrimBase().Seq + 1; seq <= meta.LogPos.Seq; seq++ {
		if _, ok := sh.Log.Get(txlog.EntryID{Seq: seq}); !ok {
			dmg = seq
			break
		}
	}
	if dmg == 0 {
		t.Fatal("setup: no quarantined record below the snapshot")
	}

	// The quarantined range is entirely covered by the snapshot, so the
	// restarted primary must recover the full dataset without ever needing
	// the damaged segment.
	if _, err := c.Restart(p.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.WaitForPrimary(c.Clock(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 17, 41, 59} {
		if got, want := get(fmt.Sprintf("cor-%d", i)), fmt.Sprintf("v%d", i); got != want {
			t.Fatalf("after corrupt-segment recovery GET cor-%d = %q, want %q", i, got, want)
		}
	}
	for _, n := range sh.Nodes() {
		if gaps := n.Stats().LogGapRetries.Load(); gaps != 0 {
			t.Errorf("node %s hit %d trimmed-gap retries", n.ID(), gaps)
		}
	}

	// Loud half: the next data record rots as it is stored
	// (txlog.corrupt_record), ABOVE the newest snapshot. No snapshot covers
	// it, so the next replay over that range must fail with
	// ErrCorruptSegment — never silently skip or serve the bytes.
	svcFaults.Arm(faultpoint.SiteLogCorruptRecord, faultpoint.Corrupt, 0)
	for i := 0; i < 10; i++ {
		set(fmt.Sprintf("cor2-%d", i), "x")
	}
	if svcFaults.Fired(faultpoint.SiteLogCorruptRecord, faultpoint.Corrupt) == 0 {
		t.Fatal("setup: the armed corrupt_record fault never fired")
	}
	if _, err := cp.Full(ctx); !errors.Is(err, txlog.ErrCorruptSegment) {
		t.Fatalf("replay over damaged suffix returned %v, want ErrCorruptSegment", err)
	}
}
