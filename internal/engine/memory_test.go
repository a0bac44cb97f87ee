package engine

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/store"
)

// heapBytes is the live heap after two collections: the second frees what
// the first only moved to sync.Pool's victim cache.
func heapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setKeys SETs keys [from, to) to 100-byte values of the given version —
// the benchmark's shape, 12-byte keys, each argument its own allocation as
// the RESP reader hands them over.
func setKeys(t *testing.T, e *Engine, from, to, version int) {
	t.Helper()
	for i := from; i < to; i++ {
		val := make([]byte, 100)
		copy(val, fmt.Sprintf("value-%d-%d", i, version))
		if r := e.Exec([][]byte{[]byte("SET"), []byte(fmt.Sprintf("key:%08d", i)), val}); r.Reply.IsError() {
			t.Fatal(r.Reply)
		}
	}
}

// TestBytesPerStringKey pins what a string key costs in DRAM and that
// INFO's used_bytes tells the truth about it. A key is one allocation — its
// name and then its value, 112 B in their size class — plus its share of
// its part's table: a 16-byte slot and a tag byte, at most 7/8 full. The
// layout before measured 165 B/key (a Go map's 33-byte slot), the one
// before that 195 (a 32-byte object and a separate key string) and the
// first 290. used_bytes charges the table's arrays as they are, so it
// must hold at 64 × 1 793 keys too, where the parts have just doubled.
func TestBytesPerStringKey(t *testing.T) {
	if got := reflect.TypeOf(store.Object{}).Size(); got > 16 {
		t.Errorf("store.Object is %d bytes, want <= 16", got)
	}
	for _, keys := range []int{100_000, 64 * 1793} {
		before := heapBytes()
		e := New(clock.NewSim(time.Unix(1700000000, 0)))
		setKeys(t, e, 0, keys, 0)
		grown := float64(heapBytes() - before)
		used := float64(e.DB().UsedBytes())
		runtime.KeepAlive(e)

		perKey := grown / float64(keys)
		t.Logf("%d keys: %.1f B/key on the heap, used_bytes says %.1f", keys, perKey, used/float64(keys))
		if keys == 100_000 && perKey > 140 {
			t.Errorf("a 12 B/100 B string key costs %.1f B of heap, want <= 140", perKey)
		}
		if off := math.Abs(used-grown) / grown; off > 0.10 {
			t.Errorf("%d keys: used_bytes = %.0f, heap grew %.0f: off by %.1f%%, want within 10%%", keys, used, grown, 100*off)
		}
	}
}

// TestStringChurnHoldsNoOldBuffers overwrites every key three times with
// same-size values, then deletes and re-creates half of them: the heap per
// key must stay within 5% of a fresh load. An old buffer kept alive — by a
// table key still pointing into it, or by a retained dirty-key list —
// would show up as a second value per key.
func TestStringChurnHoldsNoOldBuffers(t *testing.T) {
	const keys = 50_000
	before := heapBytes()
	e := New(clock.NewSim(time.Unix(1700000000, 0)))
	setKeys(t, e, 0, keys, 0)
	fresh := float64(heapBytes() - before)
	for v := 1; v <= 3; v++ {
		setKeys(t, e, 0, keys, v)
	}
	for i := 0; i < keys; i += 2 {
		if r := e.Exec([][]byte{[]byte("DEL"), []byte(fmt.Sprintf("key:%08d", i))}); r.Reply.Int != 1 {
			t.Fatalf("DEL: %v", r.Reply)
		}
	}
	for i := 0; i < keys; i += 2 {
		setKeys(t, e, i, i+1, 4)
	}
	churned := float64(heapBytes() - before)
	runtime.KeepAlive(e)
	t.Logf("%.1f B/key fresh, %.1f B/key after churn", fresh/keys, churned/keys)
	if churned > 1.05*fresh {
		t.Errorf("churn grew the heap from %.0f to %.0f B, want within 5%%", fresh, churned)
	}
}

// TestBytesPerSortedSet pins a small sorted set's footprint. It was 6.8 KB
// while every set carried its own math/rand source (a 4.9 KB state) for
// the skiplist's coin flips; an 8-byte generator leaves the set itself.
// used_bytes must say at least 80% of it: it said 47% while it left out
// the skiplist's 32-level head.
func TestBytesPerSortedSet(t *testing.T) {
	perSet, used := bytesPerAggregate(t, "ZADD", true)
	if perSet > 1500 {
		t.Errorf("a 5-member sorted set costs %.0f B of heap, want <= 1500", perSet)
	}
	if used < 0.8*perSet {
		t.Errorf("used_bytes says %.0f B of a sorted set's %.0f, want >= 80%%", used, perSet)
	}
}

// TestBytesPerSmallAggregate holds a small hash, set and list at what each
// cost while a Go map held the keyspace (692, 516 and 564 B): an aggregate
// now carries its key for the table to compare, and the table's smaller
// slot pays for it.
func TestBytesPerSmallAggregate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what a small map allocates")
	}
	for _, c := range []struct {
		cmd  string
		pair bool
		max  float64
	}{{"HSET", true, 693}, {"SADD", false, 517}, {"RPUSH", false, 565}} {
		if perKey, _ := bytesPerAggregate(t, c.cmd, c.pair); perKey > c.max {
			t.Errorf("%s of 5 members costs %.0f B of heap, want <= %.0f", c.cmd, perKey, c.max)
		}
	}
}

// bytesPerAggregate returns the heap per key of 1 000 keys that cmd gives
// five members each (score or field first, if pair), and what used_bytes
// says per key.
func bytesPerAggregate(t *testing.T, cmd string, pair bool) (perKey, used float64) {
	const keys = 1000
	before := heapBytes()
	e := New(clock.NewSim(time.Unix(1700000000, 0)))
	for i := 0; i < keys; i++ {
		argv := [][]byte{[]byte(cmd), []byte(fmt.Sprintf("agg:%06d", i))}
		for m := 1; m <= 5; m++ {
			if pair {
				argv = append(argv, []byte(fmt.Sprint(m)))
			}
			argv = append(argv, []byte(fmt.Sprintf("member-%d", m)))
		}
		if r := e.Exec(argv); r.Reply.IsError() {
			t.Fatal(r.Reply)
		}
	}
	perKey = float64(heapBytes()-before) / keys
	used = float64(e.DB().UsedBytes()) / keys
	runtime.KeepAlive(e)
	t.Logf("%s: %.1f B per 5-member key, used_bytes says %.0f", cmd, perKey, used)
	return perKey, used
}

// TestUsedBytesHoldsUnderChurn adds a member to an aggregate and takes it
// away again 1 000 times per kind: the contents end as they began, and so
// must used_bytes, to the byte. An aggregate is charged what its contents
// cost, so no cycle of mutations can move it.
func TestUsedBytesHoldsUnderChurn(t *testing.T) {
	e := New(clock.NewSim(time.Unix(1700000000, 0)))
	for _, c := range []struct {
		load        []string
		grow, cycle []string
	}{
		{[]string{"HSET", "hash", "f1", "a", "f2", "bb"}, []string{"HSET", "hash", "extra", "value"}, []string{"HDEL", "hash", "extra"}},
		{[]string{"SADD", "set", "m1", "m2"}, []string{"SADD", "set", "extra"}, []string{"SREM", "set", "extra"}},
		{[]string{"ZADD", "zset", "1", "a", "2", "b"}, []string{"ZADD", "zset", "3", "extra"}, []string{"ZREM", "zset", "extra"}},
		{[]string{"RPUSH", "list", "a", "b"}, []string{"RPUSH", "list", "extra"}, []string{"LTRIM", "list", "0", "1"}},
	} {
		if r := exec(e, c.load...); r.Reply.IsError() {
			t.Fatalf("%v: %v", c.load, r.Reply)
		}
		start := e.DB().UsedBytes()
		for i := 0; i < 1000; i++ {
			exec(e, c.grow...)
			exec(e, c.cycle...)
		}
		if got := e.DB().UsedBytes(); got != start {
			t.Errorf("1 000 cycles of %s / %s moved used_bytes from %d to %d", c.grow[0], c.cycle[0], start, got)
		}
	}
}

// TestHSetChargesWithoutWalking: an HSET into a 10 000-field hash
// allocates what one into a 10-field hash does. The hash charges the field
// it changed; nothing walks the others to price the whole.
func TestHSetChargesWithoutWalking(t *testing.T) {
	e := New(clock.NewSim(time.Unix(1700000000, 0)))
	allocs := make(map[int]float64)
	for _, fields := range []int{10, 10_000} {
		key := fmt.Sprintf("hash:%d", fields)
		for i := 0; i < fields; i++ {
			exec(e, "HSET", key, fmt.Sprintf("f%d", i), "v")
		}
		argv := [][]byte{[]byte("HSET"), []byte(key), []byte("f3"), []byte("value")}
		allocs[fields] = testing.AllocsPerRun(100, func() { e.Exec(argv) })
	}
	if allocs[10_000] != allocs[10] {
		t.Errorf("HSET allocates %.1f times into 10 000 fields, %.1f into 10", allocs[10_000], allocs[10])
	}
}

// TestUsedBytesReturnsToZero loads keys of every kind, mutates each in
// place, and deletes them: used_bytes and the key count must come back to
// exactly zero, with no clamp to hide drift. A deleted aggregate takes
// back what it was charged. FLUSHALL must do the same.
func TestUsedBytesReturnsToZero(t *testing.T) {
	e := New(clock.NewSim(time.Unix(1700000000, 0)))
	load := func() []string {
		for _, cmd := range [][]string{
			{"SET", "str", "hello"},
			{"APPEND", "str", " world"},
			{"SETRANGE", "str", "20", "x"},
			{"SET", "volatile", "v", "PX", "60000"},
			{"HSET", "hash", "f1", "a", "f2", "bb", "f3", "ccc"},
			{"HSET", "hash", "f1", "a-longer-value"},
			{"HSETNX", "hash", "f4", "d"},
			{"HDEL", "hash", "f2"},
			{"RPUSH", "list", "a", "b", "c", "d"},
			{"LPUSH", "list", "z"},
			{"LINSERT", "list", "BEFORE", "b", "ins"},
			{"LPOP", "list"},
			{"RPOP", "list", "2"},
			{"SADD", "set", "m1", "m2", "m3", "m4"},
			{"SREM", "set", "m2"},
			{"SPOP", "set"},
			{"ZADD", "zset", "1", "a", "2", "b", "3", "c"},
			{"ZREM", "zset", "b"},
			{"XADD", "stream", "1-0", "f", "v"},
			{"XADD", "stream", "2-0", "g", "w"},
			{"PFADD", "pf", "a", "b", "c"},
		} {
			if r := exec(e, cmd...); r.Reply.IsError() {
				t.Fatalf("%v: %v", cmd, r.Reply)
			}
		}
		return []string{"str", "volatile", "hash", "list", "set", "zset", "stream", "pf"}
	}
	keys := load()
	if e.DB().Len() != len(keys) || e.DB().UsedBytes() <= 0 {
		t.Fatalf("loaded: Len = %d, UsedBytes = %d", e.DB().Len(), e.DB().UsedBytes())
	}
	for _, k := range keys {
		if r := exec(e, "DEL", k); r.Reply.Int != 1 {
			t.Fatalf("DEL %s = %v", k, r.Reply)
		}
	}
	if n, used := e.DB().Len(), e.DB().UsedBytes(); n != 0 || used != 0 {
		t.Fatalf("after deleting every key: Len = %d, UsedBytes = %d, want 0 and 0", n, used)
	}
	load()
	exec(e, "FLUSHALL")
	if n, used := e.DB().Len(), e.DB().UsedBytes(); n != 0 || used != 0 {
		t.Fatalf("after FLUSHALL: Len = %d, UsedBytes = %d, want 0 and 0", n, used)
	}
}
