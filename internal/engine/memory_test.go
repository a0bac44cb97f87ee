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

// heapBytes is the live heap after a collection.
func heapBytes() uint64 {
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
// the table holding the 16-byte object. The keyspace rebuild before this
// layout measured 195 B/key (a 32-byte object and a separate 16-byte key
// string beside the value), and the one before that 290.
func TestBytesPerStringKey(t *testing.T) {
	if got := reflect.TypeOf(store.Object{}).Size(); got > 16 {
		t.Errorf("store.Object is %d bytes, want <= 16", got)
	}
	const keys = 100_000
	before := heapBytes()
	e := New(clock.NewSim(time.Unix(1700000000, 0)))
	setKeys(t, e, 0, keys, 0)
	grown := float64(heapBytes() - before)
	used := float64(e.DB().UsedBytes())
	runtime.KeepAlive(e)

	perKey := grown / keys
	t.Logf("%.1f B/key on the heap, used_bytes says %.1f", perKey, used/keys)
	if perKey > 170 {
		t.Errorf("a 12 B/100 B string key costs %.1f B of heap, want <= 170", perKey)
	}
	if off := math.Abs(used-grown) / grown; off > 0.10 {
		t.Errorf("used_bytes = %.0f, heap grew %.0f: off by %.1f%%, want within 10%%", used, grown, 100*off)
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
func TestBytesPerSortedSet(t *testing.T) {
	const sets = 1000
	before := heapBytes()
	e := New(clock.NewSim(time.Unix(1700000000, 0)))
	for i := 0; i < sets; i++ {
		argv := [][]byte{[]byte("ZADD"), []byte(fmt.Sprintf("zset:%06d", i))}
		for m := 1; m <= 5; m++ {
			argv = append(argv, []byte(fmt.Sprint(m)), []byte(fmt.Sprintf("member-%d", m)))
		}
		if r := e.Exec(argv); r.Reply.IsError() {
			t.Fatal(r.Reply)
		}
	}
	perSet := float64(heapBytes()-before) / sets
	used := float64(e.DB().UsedBytes()) / sets
	runtime.KeepAlive(e)
	t.Logf("%.0f B per 5-member sorted set, used_bytes says %.0f", perSet, used)
	if perSet > 1500 {
		t.Errorf("a 5-member sorted set costs %.0f B of heap, want <= 1500", perSet)
	}
}
