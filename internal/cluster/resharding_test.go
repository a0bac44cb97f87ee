package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/crc16"
	"memorydb/internal/engine"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/resp"
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
// from appending (core.append.pre) while the dump is applied. The move
// must come back with an error — not hang on a target that can answer
// nothing — and leave the slot where it was, serving, with every key still
// on the source.
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

// TestMigrationKeepsTheSourceLease moves a 2 000-key slot against a 2 ms
// commit and a 500 ms lease. Copying the slot must not hold the source's
// workloop past its lease: the move succeeds, the source is never demoted,
// and a reader of a source key outside the slot never sees an error.
func TestMigrationKeepsTheSourceLease(t *testing.T) {
	const keys = 2000
	c, err := New(Config{
		Name: "t", NumShards: 2,
		LogService: txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: netsim.Fixed(2 * time.Millisecond)}),
		Lease:      500 * time.Millisecond, Backoff: 700 * time.Millisecond, RenewEvery: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	ctx := context.Background()
	slot := crc16.Slot("{tag}")
	src := c.SlotOwner(slot)
	dst := c.Shards()[0]
	if dst == src {
		dst = c.Shards()[1]
	}
	srcP, err := src.WaitForPrimary(c.Clock(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.WaitForPrimary(c.Clock(), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	var load [][][]byte
	for i := 0; i < keys; i++ {
		load = append(load, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("{tag}%d", i)), []byte("v")})
	}
	outside := ""
	for i := 0; outside == ""; i++ {
		if k := fmt.Sprintf("out:%d", i); crc16.Slot(k) != slot && c.SlotOwner(crc16.Slot(k)) == src {
			outside = k
		}
	}
	load = append(load, [][]byte{[]byte("SET"), []byte(outside), []byte("stays")})
	if v, err := srcP.DoBatch(ctx, load); err != nil || v.IsError() {
		t.Fatalf("load: %v %v", v, err)
	}

	stop := make(chan struct{})
	reads := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				reads <- nil
				return
			default:
			}
			if v, err := srcP.Do(ctx, [][]byte{[]byte("GET"), []byte(outside)}); err != nil || v.Text() != "stays" {
				reads <- fmt.Errorf("GET %s on the source during the move = %v (%v)", outside, v, err)
				return
			}
		}
	}()
	err = c.MigrateSlot(ctx, slot, dst.ID)
	close(stop)
	if err != nil {
		t.Fatalf("MigrateSlot: %v", err)
	}
	if err := <-reads; err != nil {
		t.Fatal(err)
	}
	if d := srcP.Stats().Demotions.Load(); d != 0 {
		t.Fatalf("the source primary was demoted %d times during the move", d)
	}
	if c.SlotOwner(slot) != dst {
		t.Fatal("the slot did not move")
	}
}

// TestReplaySlotFailsLoudly holds the filter a move replays the source's
// log through: it keeps the slot's commands, skips other slots' and the
// keyless FLUSHALL, and fails — applying nothing — on a command it cannot
// resolve or a checksum the replay disagrees with.
func TestReplaySlotFailsLoudly(t *testing.T) {
	ctx := context.Background()
	dst, err := testCluster(t, 1, 0).Shards()[0].WaitForPrimary(clock.NewReal(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	slot := crc16.Slot("{s}")
	other := "x"
	for i := 0; crc16.Slot(other) == slot; i++ {
		other = fmt.Sprintf("x%d", i)
	}
	svc := txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: netsim.Zero{}})
	logs := 0
	logOf := func(entries ...txlog.Entry) *txlog.Log {
		t.Helper()
		logs++
		log, err := svc.CreateLog(fmt.Sprintf("src-%d", logs))
		if err != nil {
			t.Fatal(err)
		}
		after := txlog.ZeroID
		for _, e := range entries {
			e.EngineVersion = engine.Version
			if after, err = log.Append(ctx, after, e); err != nil {
				t.Fatal(err)
			}
		}
		return log
	}
	data := func(cmds ...[]string) txlog.Entry {
		var payload []byte
		for _, argv := range cmds {
			payload = resp.AppendCommand(payload, argv...)
		}
		return txlog.Entry{Type: txlog.EntryData, Payload: payload}
	}
	get := func(key string) resp.Value {
		v, err := dst.Do(ctx, [][]byte{[]byte("GET"), []byte(key)})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	kept := data([]string{"SET", "{s}a", "1"}, []string{"SET", other, "2"}, []string{"FLUSHALL"})
	log := logOf(kept)
	if end, err := replaySlot(ctx, txlog.NewReplayer(engine.Version, 0), log, txlog.ZeroID, slot, dst); err != nil || end != log.CommittedTail() {
		t.Fatalf("replaySlot = %v, %v; want the tail %v", end, err, log.CommittedTail())
	}
	if get("{s}a").Text() != "1" || !get(other).Null {
		t.Fatalf("after the replay {s}a = %v and %s = %v: want the slot's SET alone", get("{s}a"), other, get(other))
	}

	unknown := logOf(data([]string{"SET", "{s}b", "1"}), data([]string{"NOSUCH", "{s}b"}))
	if _, err := replaySlot(ctx, txlog.NewReplayer(engine.Version, 0), unknown, txlog.ZeroID, slot, dst); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("replaying an unknown command = %v, want an error", err)
	}
	bad := logOf(data([]string{"SET", "{s}c", "1"}), txlog.Entry{Type: txlog.EntryChecksum, Payload: txlog.EncodeChecksumPayload(42)})
	if _, err := replaySlot(ctx, txlog.NewReplayer(engine.Version, 0), bad, txlog.ZeroID, slot, dst); !errors.Is(err, txlog.ErrChecksumMismatch) {
		t.Fatalf("replaying past a wrong checksum = %v, want ErrChecksumMismatch", err)
	}
	if !get("{s}b").Null || !get("{s}c").Null {
		t.Fatal("a failed replay applied part of its pass")
	}
}
