package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/netsim"
	"memorydb/internal/resp"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// tracedCluster provisions a cluster whose nodes AND transaction-log
// service share one collector sampling every command, so a single write
// assembles its full cross-process span tree in one place.
func tracedCluster(t *testing.T, shards, replicas int) (*Cluster, *trace.Collector) {
	t.Helper()
	col := trace.NewCollector(1.0, 7, 0)
	svc := txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: netsim.Fixed(200 * time.Microsecond),
		Trace:         col,
		Flight:        trace.NewFlight("txlog", 0),
	})
	c, err := New(Config{
		Name:             "traced",
		NumShards:        shards,
		ReplicasPerShard: replicas,
		LogService:       svc,
		Lease:            120 * time.Millisecond,
		Backoff:          160 * time.Millisecond,
		RenewEvery:       30 * time.Millisecond,
		Trace:            col,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Stop)
	for _, sh := range c.Shards() {
		if _, err := sh.WaitForPrimary(c.Clock(), 3*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return c, col
}

// span mirrors the TRACE GET row layout:
// [span_id, parent_id, name, node, az, shard, start_usec, dur_usec].
type respSpan struct {
	id, parent uint64
	name, node string
	az         int
}

func parseSpanRows(t *testing.T, v resp.Value) []respSpan {
	t.Helper()
	if v.Type != resp.Array {
		t.Fatalf("TRACE GET = %v, want array", v)
	}
	out := make([]respSpan, 0, len(v.Array))
	for _, row := range v.Array {
		if len(row.Array) != 8 {
			t.Fatalf("span row = %v, want 8 fields", row)
		}
		out = append(out, respSpan{
			id:     uint64(row.Array[0].Int),
			parent: uint64(row.Array[1].Int),
			name:   row.Array[2].Text(),
			node:   row.Array[3].Text(),
			az:     int(row.Array[4].Int),
		})
	}
	return out
}

// TestTraceSpanTreeCrossCluster is the tentpole's headline acceptance:
// one sampled SET must yield a single *connected* span tree that crosses
// process boundaries — the primary's pipeline stages, at least two
// per-AZ log-service acks, and a replica tailer's apply on another node
// — all assembled via the TRACE GET command surface.
func TestTraceSpanTreeCrossCluster(t *testing.T) {
	c, _ := tracedCluster(t, 1, 2)
	cl := c.Client()
	ctx := context.Background()

	if v, err := cl.Do(ctx, "SET", "traced-key", "v1"); err != nil || v.IsError() {
		t.Fatalf("SET: %v %v", v, err)
	}

	// Find the SET's trace through the RESP surface: TRACE RECENT lists
	// trace IDs newest-first; TRACE GET assembles each tree. The replica
	// apply lands asynchronously (tailer poll), so re-fetch until the
	// tree is complete or the deadline passes.
	var spans []respSpan
	deadline := time.Now().Add(5 * time.Second)
	for {
		recent, err := cl.Do(ctx, "TRACE", "RECENT", "64")
		if err != nil || recent.IsError() {
			t.Fatalf("TRACE RECENT: %v %v", recent, err)
		}
		for _, idv := range recent.Array {
			got, err := cl.Do(ctx, "TRACE", "GET", fmt.Sprint(idv.Int))
			if err != nil || got.IsError() {
				t.Fatalf("TRACE GET: %v %v", got, err)
			}
			ss := parseSpanRows(t, got)
			isSet := false
			for _, s := range ss {
				if s.parent == 0 && s.name == "cmd:SET" {
					isSet = true
				}
			}
			if isSet {
				spans = ss
				break
			}
		}
		if spans != nil {
			if count(spans, "replica_apply") >= 1 && count(spans, "az_ack") >= 2 {
				break
			}
			spans = nil // incomplete: replica apply not yet recorded
		}
		if time.Now().After(deadline) {
			t.Fatal("no complete cmd:SET span tree within deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Exactly one root, named for the command.
	roots := 0
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		ids[s.id] = true
		if s.parent == 0 {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("trace has %d roots, want exactly 1: %+v", roots, spans)
	}
	// Connected: every non-root span's parent is present in the tree.
	for _, s := range spans {
		if s.parent != 0 && !ids[s.parent] {
			t.Errorf("span %d (%s on %s) orphaned: parent %d not in tree",
				s.id, s.name, s.node, s.parent)
		}
	}
	// The tree crosses the whole write path: primary stages, the append,
	// two-plus AZ acks from the log service, and a replica apply recorded
	// by a *different* node than the primary's.
	for _, want := range []string{"queue_wait", "execute", "append", "quorum_wait"} {
		if count(spans, want) == 0 {
			t.Errorf("span tree missing %q: %+v", want, spans)
		}
	}
	azs := map[int]bool{}
	for _, s := range spans {
		if s.name == "az_ack" {
			azs[s.az] = true
		}
	}
	if len(azs) < 2 {
		t.Errorf("az_ack spans from %d distinct AZs, want >= 2: %+v", len(azs), spans)
	}
	primary := nodeOf(spans, "append")
	replicas := map[string]bool{}
	for _, s := range spans {
		if s.name == "replica_apply" && s.node != primary {
			replicas[s.node] = true
		}
	}
	if len(replicas) == 0 {
		t.Errorf("no replica_apply span from a non-primary node: %+v", spans)
	}
	t.Logf("span tree: %d spans, %d AZ acks, replica applies on %v", len(spans), len(azs), keys(replicas))
}

func count(spans []respSpan, name string) int {
	n := 0
	for _, s := range spans {
		if s.name == name {
			n++
		}
	}
	return n
}

func nodeOf(spans []respSpan, name string) string {
	for _, s := range spans {
		if s.name == name {
			return s.node
		}
	}
	return ""
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTraceShardAttribution checks satellite 6 at the TRACE surface: on
// a node running several execution shards, the sampled write's
// queue_wait/execute spans carry the handling shard's index (not -1).
func TestTraceShardAttribution(t *testing.T) {
	col := trace.NewCollector(1.0, 7, 0)
	svc := txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: netsim.Zero{}, Trace: col})
	c, err := New(Config{
		Name: "shattr", NumShards: 1, ReplicasPerShard: 0,
		LogService: svc, NodeShards: 4,
		Lease: 120 * time.Millisecond, Backoff: 160 * time.Millisecond,
		RenewEvery: 30 * time.Millisecond,
		Trace:      col,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	sh := c.Shards()[0]
	if _, err := sh.WaitForPrimary(c.Clock(), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if v, err := cl.Do(ctx, "SET", fmt.Sprintf("sh-k%d", i), "v"); err != nil || v.IsError() {
			t.Fatalf("SET: %v %v", v, err)
		}
	}
	shardSeen := false
	for _, id := range col.RecentTraces(32) {
		for _, s := range col.Trace(id) {
			if (s.Name == "queue_wait" || s.Name == "execute") && s.Shard >= 0 {
				shardSeen = true
			}
		}
	}
	if !shardSeen {
		t.Fatal("no queue_wait/execute span carries a shard index on a 4-shard node")
	}
}

// dumpTimelineOnFailure arranges the black-box readout: when the test
// fails, the merged multi-node flight timeline is printed so the failure
// report shows what every node (and the log service) was doing.
func dumpTimelineOnFailure(t *testing.T, c *Cluster) {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("cluster flight timeline:\n%s", c.TimelineReport())
		}
	})
}

// TestChaosFlightTimelineRecordsNemesis runs a deliberate kill/restart
// schedule and asserts the merged flight timeline tells the story: the
// nemesis events appear, causally ordered (kill before its restart),
// alongside role transitions from more than one node — one timeline for
// the whole cluster, not a per-node scatter.
func TestChaosFlightTimelineRecordsNemesis(t *testing.T) {
	svc := txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: netsim.Fixed(200 * time.Microsecond),
		Flight:        trace.NewFlight("txlog", 0),
	})
	c, err := New(Config{
		Name: "flt", NumShards: 1, ReplicasPerShard: 2,
		LogService: svc, Snapshots: snapshot.NewManager(s3.New(), "snaps"),
		Lease: 100 * time.Millisecond, Backoff: 140 * time.Millisecond,
		RenewEvery: 25 * time.Millisecond,
		FaultSeed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	dumpTimelineOnFailure(t, c)
	sh := c.Shards()[0]
	p, err := sh.WaitForPrimary(c.Clock(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	ctx := context.Background()
	if v, err := cl.Do(ctx, "SET", "pre-kill", "v"); err != nil || v.IsError() {
		t.Fatalf("SET: %v %v", v, err)
	}

	// Nemesis: crash-freeze the primary, let a replica take over, then
	// restart the dead node as a replacement process with the same
	// identity (its ring continues the same timeline).
	victim := p.ID()
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.WaitForPrimary(c.Clock(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if v, err := cl.Do(ctx, "SET", "post-restart", "v"); err != nil || v.IsError() {
		t.Fatalf("SET after restart: %v %v", v, err)
	}

	tl := c.MergedTimeline()
	var killAt, restartAt int64 = -1, -1
	roleNodes := map[string]bool{}
	for _, e := range tl {
		switch {
		case e.Kind == trace.EvKill && e.Node == victim:
			killAt = e.At
		case e.Kind == trace.EvRestart && e.Node == victim:
			restartAt = e.At
		case e.Kind == trace.EvRoleChange:
			roleNodes[e.Node] = true
		}
	}
	if killAt < 0 || restartAt < 0 {
		t.Fatalf("timeline missing nemesis events for %s: kill=%d restart=%d\n%s",
			victim, killAt, restartAt, c.TimelineReport())
	}
	if killAt > restartAt {
		t.Fatalf("timeline out of causal order: kill at %d after restart at %d", killAt, restartAt)
	}
	if len(roleNodes) < 2 {
		t.Fatalf("role transitions from %d nodes, want >= 2 (multi-node timeline)\n%s",
			len(roleNodes), c.TimelineReport())
	}
	// Merge must be globally ordered (the causal glue: one monotonic
	// clock across every in-process ring).
	for i := 1; i < len(tl); i++ {
		if tl[i].At < tl[i-1].At {
			t.Fatalf("merged timeline not time-ordered at %d: %v then %v", i, tl[i-1], tl[i])
		}
	}
	report := c.TimelineReport()
	for _, want := range []string{"kill", "restart", "role_change", victim} {
		if !strings.Contains(report, want) {
			t.Errorf("timeline report missing %q:\n%s", want, report)
		}
	}
	t.Logf("merged timeline: %d events across %d role-changing nodes", len(tl), len(roleNodes))
}
