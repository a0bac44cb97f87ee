package store

import (
	"fmt"
	"testing"
	"time"

	"memorydb/internal/crc16"
)

var t0 = time.Unix(1700000000, 0)

func str(v string) *Object { return &Object{Str: []byte(v)} }

func TestSetLookupDelete(t *testing.T) {
	db := NewDB()
	db.Set("k", str("v"))
	obj, _ := db.Lookup("k", t0)
	if obj == nil || string(obj.Str) != "v" {
		t.Fatalf("Lookup = %v", obj)
	}
	if !db.Delete("k", t0) {
		t.Fatal("Delete returned false for existing key")
	}
	if obj, _ := db.Lookup("k", t0); obj != nil {
		t.Fatal("key survived delete")
	}
	if db.Delete("k", t0) {
		t.Fatal("Delete returned true for missing key")
	}
}

func TestSetReplacesAndClearsTTL(t *testing.T) {
	db := NewDB()
	db.Set("k", str("v1"))
	db.Expire("k", t0.Add(time.Hour).UnixMilli(), t0)
	db.Set("k", str("v2"))
	if _, hasTTL, _ := db.TTL("k", t0); hasTTL {
		t.Fatal("plain Set must clear the TTL")
	}
}

func TestSetKeepTTL(t *testing.T) {
	db := NewDB()
	db.Set("k", str("v1"))
	db.Expire("k", t0.Add(time.Hour).UnixMilli(), t0)
	db.SetKeepTTL("k", str("v2"))
	d, hasTTL, ok := db.TTL("k", t0)
	if !ok || !hasTTL || d != time.Hour {
		t.Fatalf("TTL = %v %v %v", d, hasTTL, ok)
	}
}

func TestExpiryLazyReap(t *testing.T) {
	db := NewDB()
	db.Set("k", str("v"))
	db.Expire("k", t0.Add(time.Second).UnixMilli(), t0)
	if obj, reaped := db.Lookup("k", t0.Add(500*time.Millisecond)); obj == nil || reaped {
		t.Fatal("key expired early")
	}
	obj, reaped := db.Lookup("k", t0.Add(2*time.Second))
	if obj != nil || !reaped {
		t.Fatalf("expected lazy reap, got obj=%v reaped=%v", obj, reaped)
	}
	// Second lookup: already gone, no reap flag.
	if _, reaped := db.Lookup("k", t0.Add(2*time.Second)); reaped {
		t.Fatal("double reap")
	}
}

func TestExpireInPastDeletesImmediately(t *testing.T) {
	db := NewDB()
	db.Set("k", str("v"))
	if !db.Expire("k", t0.Add(-time.Second).UnixMilli(), t0) {
		t.Fatal("Expire returned false")
	}
	if _, ok := db.Peek("k"); ok {
		t.Fatal("key should be removed by past expiry")
	}
}

func TestPersist(t *testing.T) {
	db := NewDB()
	db.Set("k", str("v"))
	if db.Persist("k", t0) {
		t.Fatal("Persist on non-volatile key must return false")
	}
	db.Expire("k", t0.Add(time.Hour).UnixMilli(), t0)
	if !db.Persist("k", t0) {
		t.Fatal("Persist failed")
	}
	if _, hasTTL, _ := db.TTL("k", t0); hasTTL {
		t.Fatal("TTL survived Persist")
	}
}

func TestTTLStates(t *testing.T) {
	db := NewDB()
	if _, _, ok := db.TTL("missing", t0); ok {
		t.Fatal("TTL of missing key must report !ok")
	}
	db.Set("k", str("v"))
	if _, hasTTL, ok := db.TTL("k", t0); !ok || hasTTL {
		t.Fatal("persistent key must report ok, no TTL")
	}
}

func TestSweepExpired(t *testing.T) {
	db := NewDB()
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		db.Set(k, str("v"))
		db.Expire(k, t0.Add(time.Duration(i)*time.Second).UnixMilli(), t0)
	}
	// k0's deadline equals "now" at Expire time, so it is deleted
	// immediately (PEXPIREAT-in-the-past semantics); k1..k5 expire later
	// and are swept.
	reaped := db.SweepExpired(t0.Add(5500*time.Millisecond), 100)
	if len(reaped) != 5 {
		t.Fatalf("reaped %d keys, want 5: %v", len(reaped), reaped)
	}
	if db.Len() != 4 {
		t.Fatalf("Len = %d, want 4", db.Len())
	}
}

func TestSweepExpiredHonoursLimit(t *testing.T) {
	db := NewDB()
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		db.Set(k, str("v"))
		db.Expire(k, t0.UnixMilli()+1, t0)
	}
	if got := db.SweepExpired(t0.Add(time.Second), 3); len(got) != 3 {
		t.Fatalf("limit ignored: %d", len(got))
	}
}

func TestSlotIndexTracksKeys(t *testing.T) {
	db := NewDB()
	key := "{tag}k1"
	slot := crc16.Slot(key)
	db.Set(key, str("v"))
	db.Set("{tag}k2", str("v"))
	if got := db.SlotCount(slot); got != 2 {
		t.Fatalf("SlotCount = %d, want 2", got)
	}
	db.Delete(key, t0)
	if got := db.SlotCount(slot); got != 1 {
		t.Fatalf("SlotCount after delete = %d, want 1", got)
	}
	keys := db.SlotKeys(slot)
	if len(keys) != 1 || keys[0] != "{tag}k2" {
		t.Fatalf("SlotKeys = %v", keys)
	}
}

func TestUsedBytesAccounting(t *testing.T) {
	db := NewDB()
	if db.UsedBytes() != 0 {
		t.Fatal("fresh DB must report 0 bytes")
	}
	db.Set("k", str("hello"))
	used := db.UsedBytes()
	if used <= 0 {
		t.Fatalf("UsedBytes = %d", used)
	}
	db.Delete("k", t0)
	if db.UsedBytes() != 0 {
		t.Fatalf("UsedBytes after delete = %d, want 0", db.UsedBytes())
	}
}

func TestKeysPattern(t *testing.T) {
	db := NewDB()
	for _, k := range []string{"user:1", "user:2", "item:1"} {
		db.Set(k, str("v"))
	}
	if got := db.Keys("user:*", t0); len(got) != 2 {
		t.Fatalf("Keys(user:*) = %v", got)
	}
	if got := db.Keys("*", t0); len(got) != 3 {
		t.Fatalf("Keys(*) = %v", got)
	}
}

func TestKeysSkipsExpired(t *testing.T) {
	db := NewDB()
	db.Set("live", str("v"))
	db.Set("dead", str("v"))
	db.Expire("dead", t0.UnixMilli()+1, t0)
	got := db.Keys("*", t0.Add(time.Minute))
	if len(got) != 1 || got[0] != "live" {
		t.Fatalf("Keys = %v", got)
	}
}

func TestForEachVisitsLiveKeys(t *testing.T) {
	db := NewDB()
	db.Set("a", str("1"))
	db.Set("b", str("2"))
	db.Expire("b", t0.UnixMilli()+1, t0)
	seen := map[string]bool{}
	db.ForEach(t0.Add(time.Minute), func(k string, o *Object, exp int64) bool {
		seen[k] = true
		return true
	})
	if !seen["a"] || seen["b"] {
		t.Fatalf("seen = %v", seen)
	}
}

func TestFlush(t *testing.T) {
	db := NewDB()
	db.Set("a", str("1"))
	db.Flush()
	if db.Len() != 0 || db.UsedBytes() != 0 {
		t.Fatalf("Flush left Len=%d Used=%d", db.Len(), db.UsedBytes())
	}
}

func TestRandomKey(t *testing.T) {
	db := NewDB()
	if _, ok := db.RandomKey(t0); ok {
		t.Fatal("RandomKey on empty DB")
	}
	db.Set("only", str("v"))
	if k, ok := db.RandomKey(t0); !ok || k != "only" {
		t.Fatalf("RandomKey = %q %v", k, ok)
	}
}
