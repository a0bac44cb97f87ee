package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/crc16"
	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

func testCluster(t *testing.T, shards, replicas int) *Cluster {
	t.Helper()
	svc := txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: netsim.Zero{}})
	c, err := New(Config{
		Name:             "t",
		NumShards:        shards,
		ReplicasPerShard: replicas,
		LogService:       svc,
		Lease:            120 * time.Millisecond,
		Backoff:          160 * time.Millisecond,
		RenewEvery:       30 * time.Millisecond,
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
	return c
}

func TestClusterRoutingAcrossShards(t *testing.T) {
	c := testCluster(t, 3, 0)
	cl := c.Client()
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		if v, err := cl.Do(ctx, "SET", k, "v"); err != nil || v.Text() != "OK" {
			t.Fatalf("SET %s: %v %v", k, v, err)
		}
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		if v, err := cl.Do(ctx, "GET", k); err != nil || v.Text() != "v" {
			t.Fatalf("GET %s: %v %v", k, v, err)
		}
	}
	// Keys really spread over multiple shards.
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		slot := crc16.Slot(fmt.Sprintf("key-%d", i))
		seen[c.SlotOwner(slot).ID] = true
	}
	if len(seen) < 2 {
		t.Fatalf("expected keys on multiple shards, got %v", seen)
	}
}

func TestCrossSlotRejected(t *testing.T) {
	c := testCluster(t, 2, 0)
	ctx := context.Background()
	// Find two keys in different slots, issue MSET through one primary.
	sh := c.Shards()[0]
	p, _ := sh.Primary()
	var k1, k2 string
	for i := 0; ; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.SlotOwner(crc16.Slot(k)) == sh {
			if k1 == "" {
				k1 = k
			} else if crc16.Slot(k) != crc16.Slot(k1) {
				k2 = k
				break
			}
		}
	}
	v, err := p.Do(ctx, [][]byte{[]byte("MSET"), []byte(k1), []byte("a"), []byte(k2), []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v.Text(), "CROSSSLOT") {
		t.Fatalf("expected CROSSSLOT, got %v", v)
	}
	// Hash tags force co-location, making the multi-key op legal.
	v, err = p.Do(ctx, [][]byte{[]byte("MSET"), []byte("{tag}a"), []byte("1"), []byte("{tag}b"), []byte("2")})
	if err != nil {
		t.Fatal(err)
	}
	if v.IsError() && !strings.HasPrefix(v.Text(), "MOVED") {
		t.Fatalf("hash-tagged MSET failed: %v", v)
	}
}

// keyOn returns the first key named prefix<i> that shard sh owns.
func keyOn(c *Cluster, sh *Shard, prefix string) string {
	for i := 0; ; i++ {
		if k := fmt.Sprintf("%s%d", prefix, i); c.SlotOwner(crc16.Slot(k)) == sh {
			return k
		}
	}
}

// TestXReadRoutesToItsStream: XREAD reaches the shard owning the stream
// it names after STREAMS, not the first shard.
func TestXReadRoutesToItsStream(t *testing.T) {
	c := testCluster(t, 2, 0)
	cl := c.Client()
	ctx := context.Background()
	s := keyOn(c, c.Shards()[1], "s")
	if v, err := cl.Do(ctx, "XADD", s, "1-1", "f", "v"); err != nil || v.Text() != "1-1" {
		t.Fatalf("XADD: %v %v", v, err)
	}
	v, err := cl.Do(ctx, "XREAD", "STREAMS", s, "0")
	if err != nil || len(v.Array) != 1 || v.Array[0].Array[0].Text() != s {
		t.Fatalf("XREAD STREAMS %s 0 = %v %v, want the stream's entry", s, v, err)
	}
}

// TestZUnionStoreAcrossShardsIsCrossSlot: a source key on another shard
// is a key of the command, so ZUNIONSTORE answers CROSSSLOT and leaves
// its destination as it was.
func TestZUnionStoreAcrossShardsIsCrossSlot(t *testing.T) {
	c := testCluster(t, 2, 0)
	cl := c.Client()
	ctx := context.Background()
	dst, src := keyOn(c, c.Shards()[0], "k"), keyOn(c, c.Shards()[1], "k")
	for _, k := range []string{dst, src} {
		if v, err := cl.Do(ctx, "ZADD", k, "1", "m"); err != nil || v.IsError() {
			t.Fatalf("ZADD %s: %v %v", k, v, err)
		}
	}
	if v, err := cl.Do(ctx, "ZUNIONSTORE", dst, "1", src); err != nil || !strings.HasPrefix(v.Text(), "CROSSSLOT") {
		t.Fatalf("ZUNIONSTORE %s 1 %s = %v %v, want CROSSSLOT", dst, src, v, err)
	}
	if v, err := cl.Do(ctx, "ZCARD", dst); err != nil || v.Int != 1 {
		t.Fatalf("ZCARD %s after the refused ZUNIONSTORE = %v %v, want 1", dst, v, err)
	}
}

// TestNumKeysOptionsAreNotKeys: the options after a numkeys command's
// keys (ZDIFF's WITHSCORES, SINTERCARD's LIMIT) are not keys, so on one
// shard they do not make the command cross slots.
func TestNumKeysOptionsAreNotKeys(t *testing.T) {
	c := testCluster(t, 1, 0)
	cl := c.Client()
	ctx := context.Background()
	for _, cmd := range [][]string{{"ZADD", "a", "1", "m"}, {"SADD", "s", "m"}} {
		if v, err := cl.Do(ctx, cmd...); err != nil || v.IsError() {
			t.Fatalf("%v: %v %v", cmd, v, err)
		}
	}
	if v, err := cl.Do(ctx, "ZDIFF", "1", "a", "WITHSCORES"); err != nil || len(v.Array) != 2 || v.Array[0].Text() != "m" {
		t.Fatalf("ZDIFF 1 a WITHSCORES = %v %v, want [m 1]", v, err)
	}
	if v, err := cl.Do(ctx, "SINTERCARD", "1", "s", "LIMIT", "5"); err != nil || v.IsError() || v.Int != 1 {
		t.Fatalf("SINTERCARD 1 s LIMIT 5 = %v %v, want 1", v, err)
	}
}

func TestMovedRedirect(t *testing.T) {
	c := testCluster(t, 2, 0)
	ctx := context.Background()
	shards := c.Shards()
	// Find a key owned by shard 1 and send it to shard 0's primary.
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.SlotOwner(crc16.Slot(k)) == shards[1] {
			key = k
			break
		}
	}
	p0, _ := shards[0].Primary()
	v, err := p0.Do(ctx, [][]byte{[]byte("GET"), []byte(key)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v.Text(), "MOVED ") {
		t.Fatalf("expected MOVED, got %v", v)
	}
}

func TestSlotMigration(t *testing.T) {
	c := testCluster(t, 2, 0)
	ctx := context.Background()
	cl := c.Client()

	// Pick a slot with traffic: write 50 keys into one slot via hash tag.
	slot := crc16.Slot("{mig}")
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("{mig}k%d", i)
		if v, err := cl.Do(ctx, "SET", k, fmt.Sprintf("v%d", i)); err != nil || v.IsError() {
			t.Fatalf("SET: %v %v", v, err)
		}
	}
	src := c.SlotOwner(slot)
	var dst *Shard
	for _, sh := range c.Shards() {
		if sh != src {
			dst = sh
		}
	}
	if err := c.MigrateSlot(ctx, slot, dst.ID); err != nil {
		t.Fatalf("MigrateSlot: %v", err)
	}
	if got := c.SlotOwner(slot); got != dst {
		t.Fatalf("slot owner = %s, want %s", got.ID, dst.ID)
	}
	// All keys readable through routing after migration.
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("{mig}k%d", i)
		v, err := cl.Do(ctx, "GET", k)
		if err != nil || v.Text() != fmt.Sprintf("v%d", i) {
			t.Fatalf("GET %s after migration: %v %v", k, v, err)
		}
	}
	// The 2PC record trail exists on both logs.
	srcHist := SlotTransferHistory(src.Log)
	dstHist := SlotTransferHistory(dst.Log)
	if len(srcHist) < 2 || len(dstHist) < 2 {
		t.Fatalf("missing 2PC records: src=%v dst=%v", srcHist, dstHist)
	}
	if srcHist[0] != fmt.Sprintf("prepare slot=%d %s->%s", slot, src.ID, dst.ID) {
		t.Fatalf("unexpected first record: %v", srcHist[0])
	}
	if srcHist[len(srcHist)-1] != fmt.Sprintf("commit slot=%d %s->%s", slot, src.ID, dst.ID) {
		t.Fatalf("unexpected last record: %v", srcHist[len(srcHist)-1])
	}
}

func TestMigrationWithConcurrentWrites(t *testing.T) {
	c := testCluster(t, 2, 0)
	ctx := context.Background()
	cl := c.Client()
	slot := crc16.Slot("{hot}")
	for i := 0; i < 20; i++ {
		if v, err := cl.Do(ctx, "SET", fmt.Sprintf("{hot}k%d", i), "init"); err != nil || v.IsError() {
			t.Fatalf("seed: %v %v", v, err)
		}
	}
	src := c.SlotOwner(slot)
	var dst *Shard
	for _, sh := range c.Shards() {
		if sh != src {
			dst = sh
		}
	}

	// One writer, so each key's last acknowledged value is known; a write
	// that fails is retried with the same value, so only the last one
	// tried may land unacknowledged.
	type written struct {
		n     int
		acked [20]string
	}
	stop := make(chan struct{})
	writes := make(chan written, 1)
	go func() {
		var w written
		for i := range w.acked {
			w.acked[i] = "init"
		}
		for {
			select {
			case <-stop:
				writes <- w
				return
			default:
			}
			val := fmt.Sprintf("gen%d", w.n)
			v, err := cl.Do(ctx, "SET", fmt.Sprintf("{hot}k%d", w.n%20), val)
			if err == nil && !v.IsError() {
				w.acked[w.n%20] = val
				w.n++
			} else if v.IsError() && strings.HasPrefix(v.Text(), "TRYAGAIN") {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := c.MigrateSlot(ctx, slot, dst.ID); err != nil {
		t.Fatalf("MigrateSlot: %v", err)
	}
	close(stop)
	w := <-writes
	if w.n == 0 {
		t.Fatal("no writes succeeded during migration")
	}
	// The new owner must answer every key with its last acknowledged
	// value.
	dstP, _ := dst.Primary()
	for i, want := range w.acked {
		k := fmt.Sprintf("{hot}k%d", i)
		v, err := dstP.Do(ctx, [][]byte{[]byte("GET"), []byte(k)})
		if err != nil || v.Text() != want && (i != w.n%20 || v.Text() != fmt.Sprintf("gen%d", w.n)) {
			t.Fatalf("key %s = %v (%v) at the new owner after migration under writes, want the last acknowledged %q", k, v, err, want)
		}
	}
}

func TestMonitorReplacesDeadReplica(t *testing.T) {
	c := testCluster(t, 1, 1)
	sh := c.Shards()[0]
	reps := sh.Replicas()
	if len(reps) != 1 {
		t.Fatalf("expected 1 replica, got %d", len(reps))
	}
	reps[0].Stop()
	m := &Monitor{Cluster: c, Interval: 10 * time.Millisecond}
	m.Tick()
	if m.Replacements() != 1 {
		t.Fatalf("replacements = %d, want 1", m.Replacements())
	}
	if got := len(sh.Nodes()); got != 2 {
		t.Fatalf("shard has %d nodes after replacement, want 2", got)
	}
}

// TestMonitorAlarmsOnPrimarylessShard: the Monitor alarms on a shard with
// no primary once PrimaryAlarmAfter has gone by over its Ticks, as one
// EvAlarm on the cluster's merged timeline, and never while a primary
// exists.
func TestMonitorAlarmsOnPrimarylessShard(t *testing.T) {
	c := testCluster(t, 1, 0)
	sh := c.Shards()[0]
	m := &Monitor{Cluster: c, Interval: 10 * time.Millisecond, PrimaryAlarmAfter: 30 * time.Millisecond}
	alarms := func() (n int) {
		for _, e := range c.MergedTimeline() {
			if e.Kind == trace.EvAlarm && strings.Contains(e.Detail, sh.ID+" has no primary") {
				n++
			}
		}
		return n
	}
	for range 5 {
		m.Tick()
	}
	if n := alarms(); n != 0 {
		t.Fatalf("%d primaryless alarms while a primary exists", n)
	}

	// Cut the only node off from the log: it cannot renew its lease, so
	// it steps down, and nothing can win the shard back.
	p, _ := sh.Primary()
	setLevel(c.nodeFaults(p.ID()), faultpoint.SiteNodePartition, true)
	deadline := time.After(5 * time.Second)
	for changed := p.Changed(); p.Role() == election.RolePrimary; changed = p.Changed() {
		select {
		case <-changed:
		case <-deadline:
			t.Fatal("a primary cut off from the log never stepped down")
		}
	}
	for tick := 1; tick <= 3; tick++ {
		m.Tick()
		if want := tick / 3; alarms() != want {
			t.Fatalf("after %d primaryless ticks of 10ms: %d alarms, want %d", tick, alarms(), want)
		}
	}
}

// countingClock is the wall clock, counting the timers registered on it.
type countingClock struct {
	clock.Real
	timers atomic.Int64
}

func (c *countingClock) Sleep(d time.Duration) { c.timers.Add(1); c.Real.Sleep(d) }

func (c *countingClock) After(d time.Duration) <-chan time.Time {
	c.timers.Add(1)
	return c.Real.After(d)
}

func (c *countingClock) AfterFunc(d time.Duration, f func()) {
	c.timers.Add(1)
	c.Real.AfterFunc(d, f)
}

// TestNodeWaitsRegisterOneTimer: waiting for a replica to catch up and for
// a primary after a failover each sleep on one deadline timer and wake on
// the node, not on a poll interval.
func TestNodeWaitsRegisterOneTimer(t *testing.T) {
	c := testCluster(t, 1, 1)
	sh := c.Shards()[0]
	p, _ := sh.Primary()
	replica := sh.Replicas()[0]
	cl := c.Client()
	ctx := context.Background()

	// Catch-up: the replica is cut off from the log while the primary
	// commits, and reconnects while the wait is under way.
	part := c.nodeFaults(replica.ID())
	setLevel(part, faultpoint.SiteNodePartition, true)
	for i := 0; i < 20; i++ {
		if v, err := cl.Do(ctx, "SET", fmt.Sprintf("k%d", i), "v"); err != nil || v.IsError() {
			t.Fatalf("SET: %v %v", v, err)
		}
	}
	if replica.AppliedSeq() >= sh.Log.CommittedTail().Seq {
		t.Fatal("setup: a partitioned replica applied the primary's writes")
	}
	time.AfterFunc(50*time.Millisecond, func() { setLevel(part, faultpoint.SiteNodePartition, false) })
	clk := &countingClock{}
	if err := waitCaughtUp(clk, sh, replica); err != nil {
		t.Fatal(err)
	}
	if n := clk.timers.Load(); n != 1 {
		t.Fatalf("waiting for a catch-up registered %d timers, want 1 (the deadline)", n)
	}

	// Failover: the primary dies and the replica wins the next election.
	if err := c.Kill(p.ID()); err != nil {
		t.Fatal(err)
	}
	clk = &countingClock{}
	got, err := sh.WaitForPrimary(clk, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != replica {
		t.Fatalf("primary after the failover is %s, want %s", got.ID(), replica.ID())
	}
	if n := clk.timers.Load(); n != 1 {
		t.Fatalf("waiting for a primary registered %d timers, want 1 (the deadline)", n)
	}
}

// TestWaitForPrimaryWakesOnNewNode: a node that joins the shard after the
// wait began, and wins its election, ends the wait long before the
// deadline.
func TestWaitForPrimaryWakesOnNewNode(t *testing.T) {
	c := testCluster(t, 1, 0)
	sh := c.Shards()[0]
	p, _ := sh.Primary()
	if err := c.Kill(p.ID()); err != nil {
		t.Fatal(err)
	}
	const timeout = 30 * time.Second
	clk := &countingClock{}
	type result struct {
		p   *core.Node
		err error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		p, err := sh.WaitForPrimary(clk, timeout)
		done <- result{p, err}
	}()
	// The wait arms its deadline once it has found no primary.
	for clk.timers.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	added, err := c.addNode(sh)
	if err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil || r.p != added {
		t.Fatalf("WaitForPrimary = %v, %v; want the added node %s", r.p, r.err, added.ID())
	}
	if waited := time.Since(start); waited > timeout/2 {
		t.Fatalf("WaitForPrimary returned after %v: the new node's election did not wake it", waited)
	}
}
