package engine

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"memorydb/internal/clock"
	"memorydb/internal/store"
)

// TestBytesPerStringKey pins what a string key costs in DRAM — the
// benchmark's shape, 12-byte keys and 100-byte values, each argument its
// own allocation as the RESP reader hands them over — and that INFO's
// used_bytes tells the truth about it. The parent of the keyspace rebuild
// measured 290 B/key (two hash-table entries per key, an 80-byte object);
// 112 B of the budget is the value in its size class and 16 B the key.
func TestBytesPerStringKey(t *testing.T) {
	if got := unsafe.Sizeof(store.Object{}); got > 48 {
		t.Errorf("store.Object is %d bytes, want <= 48", got)
	}
	const keys = 100_000
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	e := New(clock.NewSim(time.Unix(1700000000, 0)))
	for i := 0; i < keys; i++ {
		val := make([]byte, 100)
		copy(val, fmt.Sprintf("value-%d", i))
		if r := e.Exec([][]byte{[]byte("SET"), []byte(fmt.Sprintf("key:%08d", i)), val}); r.Reply.IsError() {
			t.Fatal(r.Reply)
		}
	}
	grown := float64(heap() - before)
	used := float64(e.DB().UsedBytes())
	runtime.KeepAlive(e)

	perKey := grown / keys
	t.Logf("%.1f B/key on the heap, used_bytes says %.1f", perKey, used/keys)
	if perKey > 235 {
		t.Errorf("a 12 B/100 B string key costs %.1f B of heap, want <= 235", perKey)
	}
	if off := math.Abs(used-grown) / grown; off > 0.10 {
		t.Errorf("used_bytes = %.0f, heap grew %.0f: off by %.1f%%, want within 10%%", used, grown, 100*off)
	}
}
