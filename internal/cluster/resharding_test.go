package cluster

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/crc16"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/txlog"
)

// TestSlotMigrationOutOfALargeNode moves a slot of 1 000 keys out of a
// node holding 50 000. With one dictionary per part a slot's key list is a
// scan, so the test holds the scan to the crc16 filter of KEYS *, the O(1)
// count to the list at every step, and the source to actually ending up
// empty — its drain used to be bounced key by key with MOVED and never
// finished.
func TestSlotMigrationOutOfALargeNode(t *testing.T) {
	const tagged, onNode = 1000, 50000
	// A lease long enough that KEYS * over 50 000 keys — a barrier, under
	// the race detector — cannot outlast it: nobody fails over here.
	c, err := New(Config{
		Name: "t", NumShards: 2,
		LogService: txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: netsim.Zero{}}),
		Lease:      5 * time.Second, Backoff: 6 * time.Second, RenewEvery: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	ctx := context.Background()
	slot := crc16.Slot("{mig}")
	src := c.SlotOwner(slot)
	dst := c.Shards()[0]
	if dst == src {
		dst = c.Shards()[1]
	}
	srcP, err := src.WaitForPrimary(c.Clock(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dstP, err := dst.WaitForPrimary(c.Clock(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// The tagged keys, and the few of the rest that land there by chance.
	inSlot := 0
	var batch [][][]byte
	for i, loaded := 0, 0; loaded < onNode; i++ {
		key := fmt.Sprintf("key:%d", i)
		if loaded < tagged {
			key = fmt.Sprintf("{mig}%d", i)
		} else if c.SlotOwner(crc16.Slot(key)) != src {
			continue
		}
		loaded++
		if crc16.Slot(key) == slot {
			inSlot++
		}
		batch = append(batch, [][]byte{[]byte("SET"), []byte(key), []byte("v" + key)})
		if len(batch) == 1000 || loaded == onNode {
			if v, err := srcP.DoBatch(ctx, batch); err != nil || v.IsError() {
				t.Fatalf("load: %v %v", v, err)
			}
			batch = nil
		}
	}

	// counts holds COUNTKEYSINSLOT, answered by the slot's owner, and each
	// node's own count to what this step of the move should show.
	counts := func(step string, cluster, atSrc, atDst int) {
		t.Helper()
		if v := clusterCmd(c, "CLUSTER", "COUNTKEYSINSLOT", strconv.Itoa(int(slot))); int(v.Int) != cluster {
			t.Fatalf("%s: COUNTKEYSINSLOT = %v, want %d", step, v, cluster)
		}
		for _, side := range []struct {
			n    *core.Node
			want int
		}{{srcP, atSrc}, {dstP, atDst}} {
			keys, err := side.n.SlotKeys(ctx, slot)
			n, err2 := side.n.SlotKeyCount(ctx, slot)
			if err != nil || err2 != nil || n != side.want || len(keys) != side.want {
				t.Fatalf("%s: %s counts %d keys in the slot and lists %d, want %d (%v %v)", step, side.n.ID(), n, len(keys), side.want, err, err2)
			}
		}
	}
	counts("loaded", inSlot, inSlot, 0)

	all, err := srcP.Do(ctx, [][]byte{[]byte("KEYS"), []byte("*")})
	if err != nil || len(all.Array) != onNode {
		t.Fatalf("KEYS * = %d keys, %v %v; want %d", len(all.Array), all, err, onNode)
	}
	var want []string
	for _, k := range all.Array {
		if crc16.Slot(k.Text()) == slot {
			want = append(want, k.Text())
		}
	}
	got, err := srcP.SlotKeys(ctx, slot)
	sort.Strings(got)
	sort.Strings(want)
	if err != nil || len(want) != inSlot || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("SlotKeys lists %d keys (%v), the crc16 filter of KEYS * %d", len(got), err, len(want))
	}

	if err := c.MigrateSlot(ctx, slot, dst.ID); err != nil {
		t.Fatalf("MigrateSlot: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for left := -1; left != 0; time.Sleep(time.Millisecond) {
		if left, err = srcP.SlotKeyCount(ctx, slot); err != nil || time.Now().After(deadline) {
			t.Fatalf("the source still holds %d of the moved slot's keys (%v)", left, err)
		}
	}
	counts("moved and drained", inSlot, 0, inSlot)
	if v, err := srcP.Do(ctx, [][]byte{[]byte("DBSIZE")}); err != nil || int(v.Int) != onNode-inSlot {
		t.Fatalf("source DBSIZE = %v (%v), want %d: the drain must take the slot and nothing else", v, err, onNode-inSlot)
	}
	cl := c.Client()
	for _, k := range want {
		if v, err := cl.Do(ctx, "GET", k); err != nil || v.Text() != "v"+k {
			t.Fatalf("GET %s at the new owner = %v %v", k, v, err)
		}
	}
}

// TestMigrationAbortsWhenTheTargetFails stops the target shard's nodes
// from appending (core.append.pre) in the middle of the dump. The move must come back with an error — not wedge
// the source's workloop on a stream nobody drains, nor wait twice for the
// forwarder's one result — and leave the slot where it was, serving.
func TestMigrationAbortsWhenTheTargetFails(t *testing.T) {
	c := testCluster(t, 2, 0)
	ctx := context.Background()
	slot := crc16.Slot("{ab}")
	src := c.SlotOwner(slot)
	dst := c.Shards()[0]
	if dst == src {
		dst = c.Shards()[1]
	}
	srcP, _ := src.Primary()
	var load [][][]byte
	for i := 0; i < 3000; i++ {
		load = append(load, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("{ab}%d", i)), []byte("v")})
	}
	if v, err := srcP.DoBatch(ctx, load); err != nil || v.IsError() {
		t.Fatalf("load: %v %v", v, err)
	}
	// The target's prepare record is the last step before the dump.
	go func() {
		for len(SlotTransferHistory(dst.Log)) == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		for _, n := range dst.Nodes() {
			c.nodeFaults(n.ID()).SetPlan(faultpoint.SiteAppendPre, 1, 0, faultpoint.Error)
		}
	}()
	done := make(chan error, 1)
	go func() { done <- c.MigrateSlot(ctx, slot, dst.ID) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("MigrateSlot succeeded against a target whose nodes cannot append")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("MigrateSlot hung after the target failed")
	}
	for _, n := range dst.Nodes() {
		c.nodeFaults(n.ID()).SetPlan(faultpoint.SiteAppendPre, 0, 0)
	}
	if c.SlotOwner(slot) != src {
		t.Fatal("an aborted move changed the slot's owner")
	}
	if v, err := c.Client().Do(ctx, "SET", "{ab}0", "after"); err != nil || v.IsError() {
		t.Fatalf("the source stopped serving the slot after the abort: %v %v", v, err)
	}
	if n, err := srcP.SlotKeyCount(ctx, slot); err != nil || n != 3000 {
		t.Fatalf("source holds %d of 3000 keys after the abort (%v)", n, err)
	}
}
