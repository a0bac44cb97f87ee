package txlog

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"memorydb/internal/engine"
	"memorydb/internal/resp"
)

// FuzzDecodeRecord feeds hostile bytes to what stands between the log and
// a replica's keyspace: engine.DecodeRecord (a data entry's payload), the
// EntryChecksum payload decoder, and the segment's per-record CRC and
// sealed-footer verification. Nothing may panic; a payload the record
// decoder accepts must survive a re-encode; a payload stored in the log
// must read back byte-identical through CRC verification and pass the
// restart integrity pass; and a hostile checksum entry must be refused as
// ErrChecksumMismatch, never applied.
func FuzzDecodeRecord(f *testing.F) {
	for _, seed := range [][]byte{
		resp.EncodeCommandStrings("SET", "k", "v"),
		append(resp.EncodeCommandStrings("DEL", "k"), resp.EncodeCommandStrings("HSET", "h", "f", "v")...),
		[]byte("*1\r\n$3\r\nab"), []byte("PING\r\n"), EncodeChecksumPayload(0xabc), {}, {0xff},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if cmds, err := engine.DecodeRecord(payload); err == nil {
			var again []byte
			for _, argv := range cmds {
				again = append(again, resp.EncodeCommand(argv...)...)
			}
			back, err := engine.DecodeRecord(again)
			if err != nil || len(back) != len(cmds) {
				t.Fatalf("re-encoded record: %d commands, %v; want %d", len(back), err, len(cmds))
			}
		}

		// Two entries per segment, so the first three seal one.
		log, err := NewService(Config{SegmentEntries: 2}).CreateLog("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		tail := ZeroID
		for _, typ := range []EntryType{EntryData, EntryChecksum, EntryData} {
			if tail, err = log.Append(context.Background(), tail, Entry{Type: typ, Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
		replay := NewReplayer(1, ChainChecksum(0, payload)^1) // never the sum the log will record
		rd := log.NewReader(ZeroID)
		for i := 0; i < 3; i++ {
			e, ok, err := rd.TryNext()
			if err != nil || !ok || !bytes.Equal(e.Payload, payload) {
				t.Fatalf("entry %d read back as %q, %v, %v", i+1, e.Payload, ok, err)
			}
			if e.Type != EntryChecksum {
				continue
			}
			if got := DecodeChecksumPayload(e.Payload); len(payload) != 8 && got != 0 {
				t.Fatalf("malformed checksum payload decoded to %#x", got)
			}
			applied := false
			err = replay.Step(e, func(Entry) error { applied = true; return nil })
			if applied || (err != nil && !errors.Is(err, ErrChecksumMismatch)) {
				t.Fatalf("checksum entry: applied=%v err=%v", applied, err)
			}
		}
		if q, tr := log.RecoverChain(); q != 0 || tr != 0 {
			t.Fatalf("intact log failed its integrity pass: %d quarantined, %d truncated", q, tr)
		}
		if !log.DamageRecord(1) {
			return // empty payload: nothing at rest to rot
		}
		if _, _, err := log.NewReader(ZeroID).TryNext(); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("damaged record read back with err = %v, want ErrCorruptSegment", err)
		}
	})
}
