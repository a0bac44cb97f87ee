package engine

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"strconv"
	"testing"

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

// FuzzRecordDecode holds the in-place decoder to a streaming reference
// that shares no code with it: for any input both yield the same argvs,
// or both fail. The reference knows whether it met the end of input at a
// command boundary (the end of the record) or inside a command (a
// truncated record, which the decoder rejects). The decoder must also
// never allocate in proportion to a length the input declares, only to
// the input itself.
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
		// The fewest bytes of four runs after the call above, which warmed
		// up any lazy state: the fuzzing engine's own goroutines allocate
		// too, and can only add to a run.
		var before, after runtime.MemStats
		least := ^uint64(0)
		for i := 0; i < 4; i++ {
			runtime.ReadMemStats(&before)
			_, _ = DecodeRecord(data)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 1024+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), least)
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

// referenceDecode is a streaming command decoder that shares no code with
// package resp: it reads a header line at a time and each bulk by its
// declared length, and tells a clean end from a truncated command.
func referenceDecode(data []byte) ([][][]byte, bool) {
	src := bytes.NewReader(data)
	br := bufio.NewReader(src)
	var cmds [][][]byte
	for {
		atEnd := src.Len() == 0 && br.Buffered() == 0
		argv, err := referenceCommand(br)
		if errors.Is(err, io.EOF) && atEnd {
			return cmds, true
		}
		if err != nil {
			return nil, false
		}
		cmds = append(cmds, argv)
	}
}

func referenceCommand(br *bufio.Reader) ([][]byte, error) {
	line, err := referenceLine(br)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 || line[0] != '*' {
		return bytes.FieldsFunc(line, func(c rune) bool { return c == ' ' || c == '\t' }), nil
	}
	n, err := strconv.ParseInt(string(line[1:]), 10, 64)
	if err != nil || n < 0 || n > resp.MaxArrayLen {
		return nil, resp.ErrProtocol
	}
	var argv [][]byte
	for ; n > 0; n-- {
		hdr, err := referenceLine(br)
		if err != nil {
			return nil, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, resp.ErrProtocol
		}
		m, err := strconv.ParseInt(string(hdr[1:]), 10, 64)
		if err != nil || m < 0 || m > resp.MaxBulkLen {
			return nil, resp.ErrProtocol
		}
		b, err := io.ReadAll(io.LimitReader(br, m+2))
		switch {
		case err != nil:
			return nil, err
		case int64(len(b)) < m+2:
			return nil, io.ErrUnexpectedEOF
		case b[m] != '\r' || b[m+1] != '\n':
			return nil, resp.ErrProtocol
		}
		argv = append(argv, b[:m])
	}
	return argv, nil
}

// referenceLine reads a CRLF-terminated line and returns it without the
// CRLF. A record's lines have no length limit.
func referenceLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	switch {
	case err != nil:
		return nil, err
	case len(line) < 2 || line[len(line)-2] != '\r':
		return nil, resp.ErrProtocol
	}
	return line[:len(line)-2], nil
}
