package store

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"memorydb/internal/crc16"
)

var t0 = time.Unix(1700000000, 0)

func TestSetLookupDelete(t *testing.T) {
	db := NewDB()
	db.SetString("k", []byte("v"))
	obj, _ := db.Lookup("k", t0)
	if !obj.Exists() || string(obj.Str()) != "v" {
		t.Fatalf("Lookup = %v", obj)
	}
	if !db.Delete("k", t0) {
		t.Fatal("Delete returned false for existing key")
	}
	if obj, _ := db.Lookup("k", t0); obj.Exists() {
		t.Fatal("key survived delete")
	}
	if db.Delete("k", t0) {
		t.Fatal("Delete returned true for missing key")
	}
}

func TestSetReplacesAndClearsTTL(t *testing.T) {
	db := NewDB()
	db.SetString("k", []byte("v1"))
	db.Expire("k", t0.Add(time.Hour).UnixMilli(), t0)
	db.SetString("k", []byte("v2"))
	if _, hasTTL, _ := db.TTL("k", t0); hasTTL {
		t.Fatal("plain Set must clear the TTL")
	}
}

func TestSetKeepTTL(t *testing.T) {
	db := NewDB()
	db.SetString("k", []byte("v1"))
	db.Expire("k", t0.Add(time.Hour).UnixMilli(), t0)
	db.SetStringKeepTTL("k", []byte("v2"))
	d, hasTTL, ok := db.TTL("k", t0)
	if !ok || !hasTTL || d != time.Hour {
		t.Fatalf("TTL = %v %v %v", d, hasTTL, ok)
	}
}

func TestExpiryLazyReap(t *testing.T) {
	db := NewDB()
	db.SetString("k", []byte("v"))
	db.Expire("k", t0.Add(time.Second).UnixMilli(), t0)
	if obj, reaped := db.Lookup("k", t0.Add(500*time.Millisecond)); !obj.Exists() || reaped {
		t.Fatal("key expired early")
	}
	obj, reaped := db.Lookup("k", t0.Add(2*time.Second))
	if obj.Exists() || !reaped {
		t.Fatalf("expected lazy reap, got obj=%v reaped=%v", obj, reaped)
	}
	// Second lookup: already gone, no reap flag.
	if _, reaped := db.Lookup("k", t0.Add(2*time.Second)); reaped {
		t.Fatal("double reap")
	}
}

func TestExpireInPastDeletesImmediately(t *testing.T) {
	db := NewDB()
	db.SetString("k", []byte("v"))
	if !db.Expire("k", t0.Add(-time.Second).UnixMilli(), t0) {
		t.Fatal("Expire returned false")
	}
	if _, ok := db.Peek("k"); ok {
		t.Fatal("key should be removed by past expiry")
	}
}

func TestPersist(t *testing.T) {
	db := NewDB()
	db.SetString("k", []byte("v"))
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
	db.SetString("k", []byte("v"))
	if _, hasTTL, ok := db.TTL("k", t0); !ok || hasTTL {
		t.Fatal("persistent key must report ok, no TTL")
	}
}

func TestSweepExpired(t *testing.T) {
	db := NewDB()
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		db.SetString(k, []byte("v"))
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
		db.SetString(k, []byte("v"))
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
	db.SetString(key, []byte("v"))
	db.SetString("{tag}k2", []byte("v"))
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
	db.SetString("k", []byte("hello"))
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
		db.SetString(k, []byte("v"))
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
	db.SetString("live", []byte("v"))
	db.SetString("dead", []byte("v"))
	db.Expire("dead", t0.UnixMilli()+1, t0)
	got := db.Keys("*", t0.Add(time.Minute))
	if len(got) != 1 || got[0] != "live" {
		t.Fatalf("Keys = %v", got)
	}
}

func TestForEachVisitsLiveKeys(t *testing.T) {
	db := NewDB()
	db.SetString("a", []byte("1"))
	db.SetString("b", []byte("2"))
	db.Expire("b", t0.UnixMilli()+1, t0)
	seen := map[string]bool{}
	db.ForEach(t0.Add(time.Minute), func(k string, o Object, exp int64) bool {
		seen[k] = true
		return true
	})
	if !seen["a"] || seen["b"] {
		t.Fatalf("seen = %v", seen)
	}
}

func TestFlush(t *testing.T) {
	db := NewDB()
	db.SetString("a", []byte("1"))
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
	db.SetString("only", []byte("v"))
	if k, ok := db.RandomKey(t0); !ok || k != "only" {
		t.Fatalf("RandomKey = %q %v", k, ok)
	}
}

// tableKey returns the key string the part's table compares for key.
func tableKey(db *DB, key string) string {
	if s := db.part(key).table.get(key); s != nil {
		return s.key()
	}
	return ""
}

// TestOverwriteRekeysTable pins what keeps an overwritten string's buffer
// collectable: the table's key is a view of the buffer, and assigning over
// an existing entry — of any kind — must leave the table holding the new
// value's key, not the old buffer's. So must the TTL table under KEEPTTL.
// An aggregate carries the key it was stored under.
func TestOverwriteRekeysTable(t *testing.T) {
	db := NewDB()
	key := "k"
	held := func() *byte { return unsafe.StringData(tableKey(db, key)) }
	stored := db.SetString(key, []byte("v1"))
	if held() != unsafe.StringData(stored) || unsafe.StringData(stored) == unsafe.StringData(key) {
		t.Fatal("the table's key is not the view SetString returned")
	}
	db.Expire(stored, t0.Add(time.Hour).UnixMilli(), t0)
	stored = db.SetStringKeepTTL(key, []byte("v2"))
	if held() != unsafe.StringData(stored) {
		t.Fatal("an overwrite left the table holding the old buffer's key")
	}
	for k := range db.part(key).expires {
		if unsafe.StringData(k) != unsafe.StringData(stored) {
			t.Fatal("a KEEPTTL overwrite left the TTL table holding the old buffer's key")
		}
	}
	hashKey := string([]byte(key))
	db.Set(hashKey, New(KindHash))
	if held() != unsafe.StringData(hashKey) {
		t.Fatal("a hash over a string left the table holding the string's buffer")
	}
	stored = db.SetString(key, nil)
	if held() != unsafe.StringData(stored) {
		t.Fatal("a string over a hash left the table holding the hash's key")
	}
	if obj, _ := db.Peek(key); obj.Kind() != KindString || len(obj.Str()) != 0 {
		t.Fatalf("empty value read back as %v %q", obj.Kind(), obj.Str())
	}
}

// TestAppendAmortized pins APPEND's growth: 10 000 appends of 10 bytes
// allocate at most four times the final length, and no append rewrites a
// byte an earlier read returned.
func TestAppendAmortized(t *testing.T) {
	const appends, chunk = 10_000, 10
	tail := func(i int) []byte { return []byte(fmt.Sprintf("%0*d", chunk, i)) }
	tails := make([][]byte, appends)
	for i := range tails {
		tails[i] = tail(i)
	}
	db := NewDB()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range tails {
		db.Append("k", b)
	}
	runtime.ReadMemStats(&after)
	obj, _ := db.Peek("k")
	if got := len(obj.Str()); got != appends*chunk {
		t.Fatalf("length %d, want %d", got, appends*chunk)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*appends*chunk {
		t.Errorf("appends allocated %d B for a %d B value, want <= 4x", got, appends*chunk)
	}
	if used, want := db.UsedBytes(), arrayBytes(minSlots)+allocSize(1+1<<17); used != want {
		t.Errorf("UsedBytes = %d, want %d (a 2^17-byte value capacity)", used, want)
	}

	db = NewDB()
	type read struct{ view, copy []byte }
	var reads []read
	for i, b := range tails[:300] {
		db.Append("k", b)
		obj, _ := db.Peek("k")
		reads = append(reads, read{obj.Str(), bytes.Clone(obj.Str())})
		if !bytes.Equal(obj.Str()[i*chunk:], b) {
			t.Fatalf("append %d reads back %q", i, obj.Str()[i*chunk:])
		}
	}
	for i, r := range reads {
		if !bytes.Equal(r.view, r.copy) {
			t.Fatalf("the value read after append %d changed under later appends", i)
		}
	}
}
