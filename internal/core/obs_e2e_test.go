package core

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/obs"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/trace"
)

// TestObsStageSumsApproxE2E drives serialized writes (so every
// group-commit batch carries exactly one record and the per-batch stages
// line up one-to-one with commands) and checks that the per-stage spans
// account for the measured end-to-end latency: the pipeline decomposition
// queue_wait + execute + batch_wait + append + quorum_wait +
// tracker_release must cover the submit-to-reply span within tolerance.
func TestObsStageSumsApproxE2E(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-obs")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	const writes = 50
	for i := 0; i < writes; i++ {
		mustDo(t, n, "SET", fmt.Sprintf("k%d", i), "v")
	}

	m := n.Obs()
	e2e := m.Stage(obs.StageE2E)
	if got := e2e.Count(); got < writes {
		t.Fatalf("e2e count = %d, want >= %d", got, writes)
	}
	stages := []obs.Stage{
		obs.StageQueueWait, obs.StageExecute, obs.StageBatchWait,
		obs.StageAppend, obs.StageQuorumWait, obs.StageTrackerRelease,
	}
	var stageSum int64
	for _, s := range stages {
		h := m.Stage(s)
		if h.Count() == 0 {
			t.Errorf("stage %s recorded no samples", s)
		}
		stageSum += h.Sum()
	}
	total := e2e.Sum()
	diff := total - stageSum
	if diff < 0 {
		diff = -diff
	}
	// Allow 30%: bucket rounding, the reply-channel hop after delivery,
	// and scheduling between stamps all live in the gap.
	if float64(diff) > 0.30*float64(total) {
		t.Fatalf("stage sums %v vs e2e %v: gap %.1f%% exceeds 30%%",
			time.Duration(stageSum), time.Duration(total),
			100*float64(diff)/float64(total))
	}
}

var infoStatRe = regexp.MustCompile(`(\w+)=(\d+)`)

// infoStageStats extracts the k=v integer fields from the INFO line
// "stage_<name>:count=...,p50_usec=...".
func infoStageStats(t *testing.T, info, stage string) map[string]int64 {
	t.Helper()
	prefix := "stage_" + stage + ":"
	for _, line := range regexp.MustCompile(`\r?\n`).Split(info, -1) {
		if len(line) < len(prefix) || line[:len(prefix)] != prefix {
			continue
		}
		out := map[string]int64{}
		for _, kv := range infoStatRe.FindAllStringSubmatch(line[len(prefix):], -1) {
			v, err := strconv.ParseInt(kv[2], 10, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			out[kv[1]] = v
		}
		return out
	}
	t.Fatalf("INFO has no %q line:\n%s", prefix, info)
	return nil
}

// TestInfoLatencyNonZeroAfterPipelinedWrites checks the PR's headline
// acceptance: after a concurrent write workload, INFO's # Latency section
// reports non-zero p50 and p99 for the interior pipeline stages.
func TestInfoLatencyNonZeroAfterPipelinedWrites(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-obs2")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	const goroutines, perG = 32, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				argv := [][]byte{[]byte("SET"), []byte(fmt.Sprintf("k%d-%d", g, i)), []byte("v")}
				if _, err := n.Do(context.Background(), argv); err != nil {
					t.Errorf("SET: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	info := mustDo(t, n, "INFO").Text()
	for _, stage := range []string{"queue_wait", "append", "quorum_wait", "tracker_release"} {
		st := infoStageStats(t, info, stage)
		if st["count"] == 0 {
			t.Errorf("stage %s: count = 0", stage)
		}
		if st["p50_usec"] == 0 || st["p99_usec"] == 0 {
			t.Errorf("stage %s: p50=%dµs p99=%dµs, want both non-zero",
				stage, st["p50_usec"], st["p99_usec"])
		}
	}
	// The write-heavy run must also populate command stats and keep
	// quorum_wait's p50 at or above the configured 1ms commit latency.
	if st := infoStageStats(t, info, "quorum_wait"); st["p50_usec"] < 900 {
		t.Errorf("quorum_wait p50 = %dµs, want >= ~1000 (commit latency)", st["p50_usec"])
	}
}

// obsOverheadBar is the observability budget: the most extra CPU per
// write an instrumented node may spend over a NoObs node. The guard below
// resolves ±1%, and measured that way the record path does NOT meet it
// today — eight clock reads (≈38 ns each on the CI box), ten histogram
// observes (≈24 ns each) and a per-command map lookup come to ≈0.6 µs of
// this workload's 8 µs write: 7–9% with metrics alone, 8–11% with 1%
// tracing on top, on the commit that introduced the measurement and on
// its parent alike (the wall-clock guard this replaces was too noisy to
// show it and failed every other run). The bar stays where the budget is;
// `make obs` is red until the record path is cut: per-stage stamps only
// for commands the trace coin already sampled.
const obsOverheadBar = 0.05

// TestObsOverheadGuard is the cost half of the observability budget (the
// zero-alloc half lives in internal/obs): a node with metrics on, and one
// with metrics plus the production tracing posture (1% sampling, flight
// recorder armed), against a NoObs node on an identical write workload —
// the node-level path at zero commit latency, where instrumentation is
// the largest share it can be. It compares process CPU time per burst,
// not wall clock, on one P so no idle spinning dilutes or blurs it; the
// three nodes live side by side taking short bursts in rotation, so
// host-speed drift and noisy neighbours (±15% on a small shared runner)
// land on every arm alike and divide out of each round's ratio, and the
// median over many rounds discards the rounds a disturbance split. Arms
// only when MEMORYDB_OBS_GUARD=1 (`make obs`).
func TestObsOverheadGuard(t *testing.T) {
	if os.Getenv("MEMORYDB_OBS_GUARD") != "1" {
		t.Skip("set MEMORYDB_OBS_GUARD=1 to run the CPU-overhead guard")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	arms := []struct {
		name string
		cfg  func(*Config)
		node *Node
	}{
		{name: "noobs", cfg: func(c *Config) { c.NoObs = true }},
		{name: "metrics", cfg: func(*Config) {}},
		{name: "metrics+tracing+flight", cfg: func(c *Config) {
			c.Trace = trace.NewCollector(0.01, 1, 0)
			c.Flight = trace.NewFlight("node-a", 0)
		}},
	}
	for i := range arms {
		svc := testService(t, netsim.Zero{})
		log, _ := svc.CreateLog("shard-guard")
		cfg := Config{
			NodeID:  "node-a",
			ShardID: log.ShardID(),
			Log:     log,
			Lease:   2 * time.Second,
			Backoff: 3 * time.Second,
		}
		arms[i].cfg(&cfg)
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		n.Start()
		defer n.Stop()
		waitRole(t, n, election.RolePrimary, 2*time.Second)
		arms[i].node = n
	}
	cpuTime := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatalf("getrusage: %v", err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	// burst returns the process CPU time spent while n takes one burst of
	// writes (the other nodes only tick their leases meanwhile). Every
	// burst rewrites the same keys, so the heap stays in steady state.
	burst := func(n *Node) time.Duration {
		const goroutines, perG = 8, 500
		runtime.GC() // every burst starts from the same collector state
		start := cpuTime()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					argv := [][]byte{[]byte("SET"), []byte(fmt.Sprintf("g%d-%d", g, i)), []byte("v")}
					if _, err := n.Do(context.Background(), argv); err != nil {
						t.Errorf("SET: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return cpuTime() - start
	}

	const rounds = 60
	ratios := make([][]float64, len(arms))
	for r := 0; r < rounds+3; r++ {
		cost := make([]float64, len(arms))
		for k := range arms {
			// Rotate who goes first and alternate the direction, so neither
			// position in the round nor a fixed predecessor favors an arm.
			i := (r + k) % len(arms)
			if r%2 == 1 {
				i = len(arms) - 1 - i
			}
			cost[i] = float64(burst(arms[i].node))
		}
		if r < 3 {
			continue // warm-up: first bursts grow the heap and the key set
		}
		for i := 1; i < len(arms); i++ {
			ratios[i] = append(ratios[i], cost[i]/cost[0])
		}
	}
	for i := 1; i < len(arms); i++ {
		sort.Float64s(ratios[i])
		median := ratios[i][rounds/2]
		t.Logf("%s: CPU ratio vs NoObs over %d rounds: quartiles %.3f / %.3f / %.3f (%.2f%% overhead)",
			arms[i].name, rounds, ratios[i][rounds/4], median, ratios[i][3*rounds/4], 100*(median-1))
		if median > 1+obsOverheadBar {
			t.Errorf("%s overhead too high: median CPU ratio %.4f (> %.2f)", arms[i].name, median, 1+obsOverheadBar)
		}
	}
}

// TestFailedRehearsalShowsInFlightDump wires a node and its snapshot
// Manager to one flight ring, so a snapshot that fails its restore
// rehearsal is on the timeline DEBUG FLIGHT DUMP renders through the node
// alone. memorydb-server keeps the Manager's own ring, which the cluster
// endpoint's DEBUG FLIGHT DUMP merges with every node's.
func TestFailedRehearsalShowsInFlightDump(t *testing.T) {
	log, _ := testService(t, netsim.Zero{}).CreateLog("shard-0")
	flight := trace.NewFlight("node-0", 0)
	snaps := snapshot.NewManager(s3.New(), "snapshots")
	snaps.Flight = flight
	n, err := NewNode(Config{NodeID: "node-0", ShardID: log.ShardID(), Log: log, Snapshots: snaps, Flight: flight,
		Lease: 120 * time.Millisecond, Backoff: 160 * time.Millisecond, RenewEvery: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	for i := 0; i < 8; i++ {
		mustDo(t, n, "SET", fmt.Sprintf("k%d", i), "v")
	}
	faults := faultpoint.New(1)
	faults.Arm(faultpoint.SiteSnapBuild, faultpoint.Corrupt, 0)
	b := &snapshot.Builder{Manager: snaps, Log: log, ShardID: log.ShardID(), EngineVersion: 1, Faults: faults}
	if _, err := b.Full(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	if b.Stats().Rehearsals != 1 {
		t.Fatalf("%d rehearsals, want the corrupt full judged once", b.Stats().Rehearsals)
	}
	if dump := mustDo(t, n, "DEBUG", "FLIGHT", "DUMP").Text(); !strings.Contains(dump, "verification failed") {
		t.Fatalf("DEBUG FLIGHT DUMP shows no failed rehearsal:\n%s", dump)
	}
}
