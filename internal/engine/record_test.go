package engine

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strconv"
	"testing"
	"testing/iotest"

	"memorydb/internal/resp"
)

// TestDecodeRecordAllocations pins the decoder's allocations: a record
// costs its argv slices, never a copy of an argument.
func TestDecodeRecordAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	mset := [][]byte{[]byte("MSET")}
	for i := 0; i < 500; i++ {
		mset = append(mset, []byte("key:"+strconv.Itoa(i)), []byte("value"))
	}
	for _, c := range []struct {
		name   string
		record []byte
		max    float64
	}{
		{"one SET", resp.EncodeCommandStrings("SET", "k", "v"), 2},
		{"500-key MSET", resp.EncodeCommand(mset...), 3},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeRecord(c.record); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("DecodeRecord of a %s record: %.0f allocations, want <= %.0f", c.name, allocs, c.max)
		}
	}
}

// FuzzRecordDecode holds the in-place decoder to the stream reader it
// replaced: for any input both yield the same argvs, or both fail. The
// reference reads one byte at a time, so when it meets the end of input
// the test knows whether that was at a command boundary (the end of the
// record) or inside a command (a truncated record, which the decoder
// rejects). The decoder must also never allocate in proportion to a
// length the input declares, only to the input itself.
func FuzzRecordDecode(f *testing.F) {
	for _, rec := range goldenRecords(f) {
		f.Add(rec)
	}
	for _, seed := range []string{
		"", "PING\r\n", "SET  k \t v\r\n\r\n", "*0\r\n", "*1\r\n$3\r\nab", "*1\r\n$3\r\n",
		"*2\r\n$1\r\na\r\n", "*1\r\n$-1\r\n", "*-1\r\n", "*+1\r\n$01\r\nx\r\n", "*1048577\r\n",
		"*1\r\n:5\r\n", "$3\r\nabc\r\n", "*1\r\n$3\r\nabcXX", "PING",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeRecord(data)
		const runs = 4 // after the call above, which warmed up any lazy state
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_, _ = DecodeRecord(data)
		}
		runtime.ReadMemStats(&after)
		if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > 1024+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		want, ok := referenceDecode(data)
		if (err == nil) != ok {
			t.Fatalf("decoder error %v, reference accepted %v", err, ok)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%d commands, reference %d", len(got), len(want))
		}
		for i := range got {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("command %d: %q, reference %q", i, got[i], want[i])
			}
			for j := range got[i] {
				if !bytes.Equal(got[i][j], want[i][j]) || cap(got[i][j]) != len(got[i][j]) {
					t.Fatalf("command %d: %q, reference %q", i, got[i], want[i])
				}
			}
		}
	})
}

// referenceDecode is the ReadCommand loop DecodeRecord replaced, made to
// tell a clean end from a truncated command.
func referenceDecode(data []byte) ([][][]byte, bool) {
	src := bytes.NewReader(data)
	r := resp.NewReader(iotest.OneByteReader(src))
	var cmds [][][]byte
	for {
		atEnd := src.Len() == 0
		argv, err := r.ReadCommand()
		if errors.Is(err, io.EOF) && atEnd {
			return cmds, true
		}
		if err != nil {
			return nil, false
		}
		cmds = append(cmds, argv)
	}
}
