package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"io"
	"testing"

	"memorydb/internal/store"
	"memorydb/internal/txlog"
)

// FuzzReadSnapshot feeds hostile bytes to the MDBSNAP1/2 decoder that
// Manager.Resolve funnels every stored snapshot through. Each input is
// decoded twice: as a whole file, and re-framed as the body of a file
// whose checksum is valid, so the record decoder behind the CRC gate is
// reached as well. The decoder must never panic or allocate beyond its
// input, must classify every rejection as ErrBadSnapshot or ErrChecksum,
// and whatever it accepts must survive a Write/Read round trip.
func FuzzReadSnapshot(f *testing.F) {
	e := populatedEngine(f)
	// Without the 12KB HyperLogLog the seeds are a few hundred bytes, which
	// keeps the fuzzer's input minimization from eating the time budget.
	e.Exec([][]byte{[]byte("DEL"), []byte("hll")})
	db := e.DB()
	meta := Meta{ShardID: "s1", EngineVersion: 2, LogPos: txlog.EntryID{Seq: 42}, LogChecksum: 0xabc}
	var full, delta bytes.Buffer
	if err := Write(&full, db, meta); err != nil {
		f.Fatal(err)
	}
	dmeta := meta
	dmeta.Kind, dmeta.BasePos, dmeta.ChainDepth = KindDelta, txlog.EntryID{Seq: 40}, 1
	if err := WriteDelta(&delta, db, []string{"hash", "deleted", "zset"}, dmeta); err != nil {
		f.Fatal(err)
	}
	_, body, err := readFile(full.Bytes())
	if err != nil {
		f.Fatal(err)
	}
	// The pre-chain framing: same fields minus kind, base and depth.
	v1 := append([]byte(nil), magicHeaderV1...)
	v1 = binary.BigEndian.AppendUint32(v1, 2)
	v1 = append(v1, "s1"...)
	v1 = binary.BigEndian.AppendUint32(v1, 2)
	v1 = binary.BigEndian.AppendUint64(v1, 42)
	v1 = binary.BigEndian.AppendUint64(v1, 0xabc)
	v1 = binary.BigEndian.AppendUint64(v1, uint64(len(body)))
	v1 = append(v1, body...)
	v1 = binary.BigEndian.AppendUint64(v1, crc64.Checksum(v1, crcTable))
	v1 = append(v1, magicFooter...)
	if got, err := ReadInto(bytes.NewReader(v1), store.NewDB()); err != nil || got != meta {
		f.Fatalf("MDBSNAP1 seed: meta %+v, err %v", got, err)
	}
	for _, file := range [][]byte{full.Bytes(), delta.Bytes(), v1} {
		for _, n := range []int{len(file), len(file) - 1, len(file) / 2, len(magicHeaderV2) + 3, 0} {
			f.Add(file[:n])
		}
	}
	f.Add(body)

	f.Fuzz(func(t *testing.T, data []byte) {
		var framed bytes.Buffer
		if err := writeFile(&framed, meta, data); err != nil {
			t.Fatal(err)
		}
		for _, file := range [][]byte{data, framed.Bytes()} {
			got := store.NewDB()
			gotMeta, err := ReadInto(bytes.NewReader(file), got)
			if err != nil {
				if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrChecksum) {
					t.Fatalf("unclassified decode error: %v", err)
				}
				continue
			}
			var out bytes.Buffer
			if err := Write(&out, got, gotMeta); err != nil {
				t.Fatalf("accepted snapshot does not re-encode: %v", err)
			}
			again, againMeta, err := Read(&out)
			if err != nil || againMeta != gotMeta || again.Len() != got.Len() {
				t.Fatalf("round trip: %d keys %+v -> %d keys %+v, err %v",
					got.Len(), gotMeta, again.Len(), againMeta, err)
			}
		}
	})
}

// writeFile frames an arbitrary body as a snapshot file whose checksum is
// valid.
func writeFile(w io.Writer, meta Meta, body []byte) error {
	_, err := w.Write(frame(meta, len(body), func(b []byte) []byte { return append(b, body...) }))
	return err
}
