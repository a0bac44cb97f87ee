package snapshot

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"memorydb/internal/store"
	"memorydb/internal/txlog"
)

// Property: any keyspace of string values round-trips through the
// snapshot format byte-for-byte, with metadata intact.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(pairs map[string]string, seq uint64, sum uint64) bool {
		db := store.NewDB()
		for k, v := range pairs {
			if k == "" {
				continue
			}
			db.SetString(k, []byte(v))
		}
		meta := Meta{ShardID: "q", EngineVersion: 2, LogPos: txlog.EntryID{Seq: seq}, LogChecksum: sum}
		var buf bytes.Buffer
		if err := Write(&buf, db, meta); err != nil {
			return false
		}
		got, gotMeta, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil || gotMeta != meta || got.Len() != db.Len() {
			return false
		}
		for k, v := range pairs {
			if k == "" {
				continue
			}
			obj, ok := got.Peek(k)
			if !ok || string(obj.Str()) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: single-byte corruption anywhere in the body region is always
// detected.
func TestQuickCorruptionAlwaysDetected(t *testing.T) {
	db := store.NewDB()
	for i := 0; i < 20; i++ {
		db.SetString(fmt.Sprintf("k%02d", i), []byte("payload-payload"))
	}
	var buf bytes.Buffer
	if err := Write(&buf, db, Meta{ShardID: "q"}); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	// The header region (magic + meta) is guarded by structure checks;
	// the body by CRC64. Flip one byte at a sample of positions.
	headerLen := len(magicHeaderV2) + 4 + len("q") + 4 + 8 + 8 + 1 + 8 + 4 + 8
	for pos := headerLen; pos < len(pristine)-10; pos += 7 {
		corrupted := append([]byte(nil), pristine...)
		corrupted[pos] ^= 0x01
		if _, _, err := Read(bytes.NewReader(corrupted)); err == nil {
			t.Fatalf("corruption at byte %d undetected", pos)
		}
	}
}
