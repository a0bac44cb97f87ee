package resp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, v Value) Value {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteValue(v); err != nil {
		t.Fatalf("WriteValue: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := NewReader(&buf).ReadValue()
	if err != nil {
		t.Fatalf("ReadValue: %v", err)
	}
	return got
}

func TestRoundTripSimpleString(t *testing.T) {
	v := Simple("OK")
	if got := roundTrip(t, v); !got.Equal(v) {
		t.Fatalf("got %v want %v", got, v)
	}
}

func TestRoundTripError(t *testing.T) {
	v := Err("ERR something went wrong")
	got := roundTrip(t, v)
	if !got.IsError() || got.Text() != "ERR something went wrong" {
		t.Fatalf("got %v", got)
	}
}

func TestRoundTripInteger(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 1<<62 - 1, -(1 << 62)} {
		v := Int64(n)
		if got := roundTrip(t, v); got.Int != n {
			t.Fatalf("got %d want %d", got.Int, n)
		}
	}
}

func TestRoundTripBulk(t *testing.T) {
	cases := [][]byte{nil, {}, []byte("hello"), []byte("with\r\nnewlines"), bytes.Repeat([]byte{0}, 1000)}
	for _, b := range cases {
		v := Bulk(b)
		got := roundTrip(t, v)
		if !bytes.Equal(got.Str, b) {
			t.Fatalf("got %q want %q", got.Str, b)
		}
	}
}

func TestRoundTripNullBulk(t *testing.T) {
	got := roundTrip(t, Nil)
	if !got.Null || got.Type != BulkString {
		t.Fatalf("got %#v", got)
	}
}

func TestRoundTripNullArray(t *testing.T) {
	got := roundTrip(t, NullArray())
	if !got.Null || got.Type != Array {
		t.Fatalf("got %#v", got)
	}
}

func TestRoundTripNestedArray(t *testing.T) {
	v := ArrayV(BulkStr("a"), Int64(2), ArrayV(Simple("x"), Nil), BulkArray("p", "q"))
	got := roundTrip(t, v)
	if !got.Equal(v) {
		t.Fatalf("got %v want %v", got, v)
	}
}

func TestRoundTripEmptyArray(t *testing.T) {
	got := roundTrip(t, ArrayV())
	if got.Null || len(got.Array) != 0 || got.Type != Array {
		t.Fatalf("got %#v", got)
	}
}

func TestReadCommandMultibulk(t *testing.T) {
	r := NewReader(strings.NewReader("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"))
	argv, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(argv) != 3 || string(argv[0]) != "SET" || string(argv[2]) != "v" {
		t.Fatalf("argv = %q", argv)
	}
}

func TestReadCommandInline(t *testing.T) {
	r := NewReader(strings.NewReader("PING\r\nSET  k   v\r\n"))
	argv, err := r.ReadCommand()
	if err != nil || len(argv) != 1 || string(argv[0]) != "PING" {
		t.Fatalf("argv=%q err=%v", argv, err)
	}
	argv, err = r.ReadCommand()
	if err != nil || len(argv) != 3 || string(argv[1]) != "k" {
		t.Fatalf("argv=%q err=%v", argv, err)
	}
}

func TestReadCommandRejectsBadLength(t *testing.T) {
	for _, in := range []string{
		"*-2\r\n",
		"*1\r\n$-5\r\n",
		"*1\r\n$3\r\nab\r\n", // short bulk
		"*1\r\n:5\r\n",       // non-bulk element
	} {
		r := NewReader(strings.NewReader(in))
		if _, err := r.ReadCommand(); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}

func TestReaderRejectsMissingCRLF(t *testing.T) {
	r := NewReader(strings.NewReader("$3\r\nabcXX"))
	if _, err := r.ReadValue(); err == nil {
		t.Fatal("expected error for missing CRLF terminator")
	}
}

func TestReaderRejectsUnknownType(t *testing.T) {
	r := NewReader(strings.NewReader("!3\r\nabc\r\n"))
	if _, err := r.ReadValue(); err == nil {
		t.Fatal("expected protocol error")
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.ReadValue(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestEncodeCommandMatchesWriter(t *testing.T) {
	argv := [][]byte{[]byte("HSET"), []byte("key"), []byte("f"), []byte("value with spaces")}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCommand(argv...); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if got := EncodeCommand(argv...); !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("EncodeCommand = %q, writer = %q", got, buf.Bytes())
	}
}

func TestEncodeCommandRoundTripQuick(t *testing.T) {
	f := func(args [][]byte) bool {
		if len(args) == 0 {
			args = [][]byte{[]byte("X")}
		}
		enc := EncodeCommand(args...)
		r := NewReader(bytes.NewReader(enc))
		got, err := r.ReadCommand()
		if err != nil || len(got) != len(args) {
			return false
		}
		for i := range args {
			if !bytes.Equal(got[i], args[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValueRoundTripQuick(t *testing.T) {
	f := func(s []byte, n int64) bool {
		v := ArrayV(Bulk(s), Int64(n), Nil)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if w.WriteValue(v) != nil || w.Flush() != nil {
			return false
		}
		got, err := NewReader(&buf).ReadValue()
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Simple("OK"), "+OK"},
		{Int64(7), ":7"},
		{Nil, "(nil)"},
		{BulkStr("x"), `"x"`},
		{ArrayV(Int64(1), Int64(2)), "[:1 :2]"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// A declared length is trusted only up to maxPreallocBytes (or maxPrealloc
// elements) before its bytes arrive: a truncated 512 MB bulk or
// million-element array costs at most that, and a bulk past the cap still
// reads back whole through the growth loop.
func TestHostileLengthsDoNotPreallocate(t *testing.T) {
	for _, in := range []string{"$536870000\r\nxy", "*1\r\n$536870000\r\nxy", "*1000000\r\n$1\r\na\r\n",
		strings.Repeat("*1000000\r\n", 1000)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewReader(strings.NewReader(in)).ReadValue()
		NewReader(strings.NewReader(in)).ReadCommand()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%q: truncated input accepted", in)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*maxPreallocBytes+(256<<10) {
			t.Errorf("%q: decoding allocated %d B", in, got)
		}
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), (5*maxPreallocBytes+48)/16)
	var wire bytes.Buffer
	w := NewWriter(&wire)
	if err := w.WriteCommand([]byte("SET"), []byte("k"), big); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	argv, err := NewReader(&wire).ReadCommand()
	if err != nil || len(argv) != 3 || !bytes.Equal(argv[2], big) {
		t.Fatalf("%d-byte bulk did not survive the growth loop: %d args, err %v", len(big), len(argv), err)
	}
}

// commandReader serves one whole command per Read, the way a socket
// usually delivers a client's write.
type commandReader struct{ wire []byte }

func (c commandReader) Read(p []byte) (int, error) { return copy(p, c.wire), nil }

// TestReadCommandAllocations pins a command to two allocations at any
// arity, its argument list and its one buffer: header lines are parsed in
// place and every argument is copied into the same buffer.
func TestReadCommandAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	mset := [][]byte{[]byte("MSET")}
	for i := 0; i < 500; i++ {
		mset = append(mset, []byte(fmt.Sprintf("key:%08d", i)), bytes.Repeat([]byte{'v'}, 16))
	}
	for _, c := range []struct {
		name string
		argv [][]byte
		max  float64
	}{
		{"GET", [][]byte{[]byte("GET"), []byte("key:00000001")}, 2},
		{"SET", [][]byte{[]byte("SET"), []byte("key:00000001"), bytes.Repeat([]byte{'v'}, 100)}, 2},
		{"MSET", mset, 3},
	} {
		r := NewReader(commandReader{EncodeCommand(c.argv...)})
		got := testing.AllocsPerRun(200, func() {
			if argv, err := r.ReadCommand(); err != nil || len(argv) != len(c.argv) {
				t.Fatalf("%s: %d args, %v", c.name, len(argv), err)
			}
		})
		if got > c.max {
			t.Errorf("%s (%d args): %.1f allocations per ReadCommand, want <= %.0f", c.name, len(c.argv), got, c.max)
		} else {
			t.Logf("%s (%d args): %.1f allocations per ReadCommand", c.name, len(c.argv), got)
		}
	}
}

// A line that never ends is hostile, not slow: header, inline and
// simple-string lines stop at maxLineLen with a protocol error, having
// buffered no more than the reader's own buffer.
func TestUnterminatedLineIsBounded(t *testing.T) {
	junk := bytes.Repeat([]byte{'7'}, 1<<20)
	for _, c := range []struct {
		prefix string
		read   func(*Reader) error
	}{
		{"*", func(r *Reader) error { _, err := r.ReadCommand(); return err }},
		{"*1\r\n$", func(r *Reader) error { _, err := r.ReadCommand(); return err }},
		{"GET ", func(r *Reader) error { _, err := r.ReadCommand(); return err }},
		{"+", func(r *Reader) error { _, err := r.ReadValue(); return err }},
		{":", func(r *Reader) error { _, err := r.ReadValue(); return err }},
	} {
		in := append([]byte(c.prefix), junk...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.read(NewReader(bytes.NewReader(in)))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("%q + 1 MiB without CRLF: err %v, want ErrProtocol", c.prefix, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
			t.Errorf("%q + 1 MiB without CRLF: allocated %d B, want < 256 KiB", c.prefix, got)
		}
	}
}
