package resp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"slices"
	"strconv"
	"testing"
	"testing/iotest"
)

// FuzzReadCommand feeds hostile bytes to the decoder every socket and
// every replicated record goes through. It must never panic, must
// classify every rejection as ErrProtocol or the stream ending, and
// whatever it accepts must survive an encode/decode round trip. Each input
// is decoded three ways that must agree: whole, which takes the in-buffer
// path; a byte per read, which takes the split-read path; and by
// refReadCommand, which shares no code with either. An argv must stay
// byte-for-byte what it was after the next ReadCommand.
func FuzzReadCommand(f *testing.F) {
	for _, seed := range []string{
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n",
		"PING\r\nSET  k   v\r\n",
		"*-2\r\n", "*1\r\n$-5\r\n", "*1\r\n$3\r\nab\r\n", "*1\r\n:5\r\n",
		"$3\r\nabcXX", "!3\r\nabc\r\n",
		"+OK\r\n-ERR x\r\n:42\r\n$-1\r\n*-1\r\n*2\r\n$1\r\na\r\n*1\r\n:7\r\n",
		"*1048577\r\n", "$536870913\r\n", "*2\r\n$536870000\r\nx", "",
		"*2\r\n$0\r\n\r\n$2\r\nab\r\n*1\r\n$1\r\nz\r\n", "*2\r\n$1\r\na\r\n:1\r\n", "*1\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	ended := func(err error) bool {
		return errors.Is(err, ErrProtocol) || err == io.EOF || err == io.ErrUnexpectedEOF
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := refCommands(data)
		whole := readCommands(t, bytes.NewReader(data))
		split := readCommands(t, iotest.OneByteReader(bytes.NewReader(data)))
		for _, got := range []struct {
			how  string
			cmds [][][]byte
		}{{"whole", whole}, {"byte-at-a-time", split}} {
			if len(got.cmds) != len(ref) {
				t.Fatalf("%s read decoded %d commands, reference %d", got.how, len(got.cmds), len(ref))
			}
			for i := range ref {
				if !slices.EqualFunc(got.cmds[i], ref[i], bytes.Equal) {
					t.Fatalf("command %d: %s read %q, reference %q", i, got.how, got.cmds[i], ref[i])
				}
			}
		}
		for _, argv := range whole {
			back, err := NewReader(bytes.NewReader(EncodeCommand(argv...))).ReadCommand()
			if err != nil || !slices.EqualFunc(argv, back, bytes.Equal) {
				t.Fatalf("round trip of %q: %q, %v", argv, back, err)
			}
		}
		r := NewReader(bytes.NewReader(data))
		for {
			v, err := r.ReadValue()
			if err != nil {
				if !ended(err) {
					t.Fatalf("ReadValue: unclassified error %v", err)
				}
				break
			}
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.WriteValue(v); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			back, err := NewReader(&buf).ReadValue()
			if err != nil || !back.Equal(v) {
				t.Fatalf("round trip of %v: %v, %v", v, back, err)
			}
		}
	})
}

// readCommands decodes src to its end, checking that every rejection is
// classified and that each argv is unchanged by the read after it. Blank
// inline lines are dropped.
func readCommands(t *testing.T, src io.Reader) [][][]byte {
	r := NewReader(src)
	var out, copies [][][]byte
	for {
		argv, err := r.ReadCommand()
		if len(out) > 0 && !slices.EqualFunc(out[len(out)-1], copies[len(copies)-1], bytes.Equal) {
			t.Fatalf("argv %q changed under the next read (was %q)", out[len(out)-1], copies[len(copies)-1])
		}
		if err != nil {
			if !errors.Is(err, ErrProtocol) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("ReadCommand: unclassified error %v", err)
			}
			return out
		}
		if len(argv) == 0 {
			continue
		}
		out = append(out, argv)
		copies = append(copies, slices.Clone(argv))
		for i := range argv {
			copies[len(copies)-1][i] = bytes.Clone(argv[i])
		}
	}
}

// refCommands decodes data with refReadCommand up to its first error,
// dropping blank inline lines as readCommands does.
func refCommands(data []byte) [][][]byte {
	br := bufio.NewReader(bytes.NewReader(data))
	var out [][][]byte
	for {
		argv, err := refReadCommand(br)
		if err != nil {
			return out
		}
		if len(argv) > 0 {
			out = append(out, argv)
		}
	}
}

// refReadCommand is the oracle for ReadCommand: a streaming decoder that
// reads a header line at a time and each bulk by its declared length, and
// calls nothing in this package. Its limits are the protocol's.
func refReadCommand(br *bufio.Reader) ([][]byte, error) {
	line, err := refLine(br)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 || line[0] != '*' {
		return bytes.FieldsFunc(line, func(c rune) bool { return c == ' ' || c == '\t' }), nil
	}
	n, err := strconv.ParseInt(string(line[1:]), 10, 64)
	if err != nil || n < 0 || n > MaxArrayLen {
		return nil, ErrProtocol
	}
	var argv [][]byte
	for ; n > 0; n-- {
		hdr, err := refLine(br)
		if err != nil {
			return nil, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, ErrProtocol
		}
		m, err := strconv.ParseInt(string(hdr[1:]), 10, 64)
		if err != nil || m < 0 || m > MaxBulkLen {
			return nil, ErrProtocol
		}
		b, err := io.ReadAll(io.LimitReader(br, m+2))
		switch {
		case err != nil:
			return nil, err
		case int64(len(b)) < m+2:
			return nil, io.ErrUnexpectedEOF
		case b[m] != '\r' || b[m+1] != '\n':
			return nil, ErrProtocol
		}
		argv = append(argv, b[:m])
	}
	return argv, nil
}

// refLine reads a CRLF-terminated line of at most 64 KB, CRLF included,
// and returns it without the CRLF.
func refLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	switch {
	case err != nil:
		return nil, err
	case len(line) > 64<<10 || len(line) < 2 || line[len(line)-2] != '\r':
		return nil, ErrProtocol
	}
	return line[:len(line)-2], nil
}
