package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/conformance"
	"memorydb/internal/engine"
	"memorydb/internal/store"
	"memorydb/internal/txlog"
)

// Constants of the fixture below: the SHA-256 of its full and delta
// snapshot files and of its conformance.StateDigest. They pin the snapshot format — and the
// keyspace a restore rebuilds — against any change to how the store holds
// a value.
const (
	goldenSnapshotSHA256 = "c2267f64d0ceff03ab0fd7fe02cec5797b84d772c16193a5f2b5056c7e6fc16c"
	goldenDeltaSHA256    = "0d2b86436bd7a3ddfc77e2dcb839e32f652ba7673b6607a65143c8e71e9cc391"
	goldenDigestSHA256   = "84b0b0829bcf7f0437fa939a916ea2200718ca6e5a9c38f3766654f183296388"
)

// goldenEngine builds a keyspace of every kind, with TTLs, an empty value, a
// string grown by APPEND and a HyperLogLog. A snapshot body follows part
// order and then map order within a part, so for its bytes to be fixed
// every key sits in a part of its own and no hash or set has a second
// entry; the test checks the first of those.
func goldenEngine(t *testing.T) *engine.Engine {
	e := engine.New(clock.NewSim(time.Unix(1700000000, 0)))
	for _, cmd := range [][]string{
		{"SET", "str", "hello"},
		{"SET", "empty", ""},
		{"SET", "volatile", "v", "PX", "60000"},
		{"APPEND", "appended", "a"},
		{"APPEND", "appended", "bc"},
		{"APPEND", "appended", "defg"},
		{"INCRBY", "counter", "41"},
		{"HSET", "hash", "f", "v"},
		{"PEXPIRE", "hash", "90000"},
		{"RPUSH", "list", "a", "b", "c"},
		{"SADD", "set", "m"},
		{"ZADD", "zset", "1", "a", "2.5", "b", "-3", "c"},
		{"XADD", "stream", "1-0", "f", "v"},
		{"XADD", "stream", "2-0", "g", "w"},
		{"PFADD", "pf", "a", "b", "c"},
		{"SET", "big", strings.Repeat("0123456789", 100)},
	} {
		mustExec(t, e, cmd)
	}
	parts := map[int]string{}
	e.DB().ForEach(time.Time{}, func(key string, _ store.Object, _ int64) bool {
		if other, ok := parts[store.PartOfKey(key)]; ok {
			t.Fatalf("keys %q and %q share part %d: the body's order would not be fixed", key, other, store.PartOfKey(key))
		}
		parts[store.PartOfKey(key)] = key
		return true
	})
	return e
}

func TestSnapshotBytesGolden(t *testing.T) {
	e := goldenEngine(t)
	var buf bytes.Buffer
	meta := Meta{ShardID: "golden", EngineVersion: 2, LogPos: txlog.EntryID{Seq: 17}, LogChecksum: 0x5eed}
	if err := Write(&buf, e.DB(), meta); err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	if got := sum(buf.Bytes()); got != goldenSnapshotSHA256 {
		t.Errorf("full snapshot SHA-256 = %s, want %s", got, goldenSnapshotSHA256)
	}
	digest := conformance.StateDigest(e)
	if got := sum([]byte(digest)); got != goldenDigestSHA256 {
		t.Errorf("StateDigest SHA-256 = %s, want %s\n%s", got, goldenDigestSHA256, digest)
	}
	db, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored := engine.New(clock.NewSim(time.Unix(1700000000, 0)))
	restored.ResetDB(db)
	if got := conformance.StateDigest(restored); got != digest {
		t.Fatalf("restored\n%s\nwant\n%s", got, digest)
	}
}

// TestSnapshotDeltaBytesGolden pins the delta kind the same way: every key
// of the fixture, in sorted order, plus one tombstone.
func TestSnapshotDeltaBytesGolden(t *testing.T) {
	e := goldenEngine(t)
	keys := append(e.DB().Keys("*", e.Now()), "gone")
	sort.Strings(keys)
	var buf bytes.Buffer
	meta := Meta{ShardID: "golden", EngineVersion: 2, LogPos: txlog.EntryID{Seq: 23}, LogChecksum: 0xd1ff,
		Kind: KindDelta, BasePos: txlog.EntryID{Seq: 17}, ChainDepth: 1}
	if err := WriteDelta(&buf, e.DB(), keys, meta); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenDeltaSHA256 {
		t.Errorf("delta snapshot SHA-256 = %s, want %s", got, goldenDeltaSHA256)
	}
	db := store.NewDB()
	db.SetString("gone", []byte("tombstoned"))
	if got, err := ReadInto(&buf, db); err != nil || got != meta {
		t.Fatalf("delta: meta %+v, err %v", got, err)
	}
	restored := engine.New(clock.NewSim(time.Unix(1700000000, 0)))
	restored.ResetDB(db)
	if got, want := conformance.StateDigest(restored), conformance.StateDigest(e); got != want {
		t.Fatalf("restored\n%s\nwant\n%s", got, want)
	}
}
