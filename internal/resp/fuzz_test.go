package resp

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadCommand feeds hostile bytes to the decoder every socket and
// every replicated record goes through. It must never panic, must
// classify every rejection as ErrProtocol or the stream ending, and
// whatever it accepts must survive an encode/decode round trip.
func FuzzReadCommand(f *testing.F) {
	for _, seed := range []string{
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n",
		"PING\r\nSET  k   v\r\n",
		"*-2\r\n", "*1\r\n$-5\r\n", "*1\r\n$3\r\nab\r\n", "*1\r\n:5\r\n",
		"$3\r\nabcXX", "!3\r\nabc\r\n",
		"+OK\r\n-ERR x\r\n:42\r\n$-1\r\n*-1\r\n*2\r\n$1\r\na\r\n*1\r\n:7\r\n",
		"*1048577\r\n", "$536870913\r\n", "*2\r\n$536870000\r\nx", "",
	} {
		f.Add([]byte(seed))
	}
	ended := func(err error) bool {
		return errors.Is(err, ErrProtocol) || err == io.EOF || err == io.ErrUnexpectedEOF
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for {
			argv, err := r.ReadCommand()
			if err != nil {
				if !ended(err) {
					t.Fatalf("ReadCommand: unclassified error %v", err)
				}
				break
			}
			if len(argv) == 0 {
				continue // a blank inline line
			}
			back, err := NewReader(bytes.NewReader(EncodeCommand(argv...))).ReadCommand()
			if err != nil || len(back) != len(argv) {
				t.Fatalf("round trip of %q: %q, %v", argv, back, err)
			}
			for i := range argv {
				if !bytes.Equal(argv[i], back[i]) {
					t.Fatalf("round trip of %q: arg %d = %q", argv, i, back[i])
				}
			}
		}
		r = NewReader(bytes.NewReader(data))
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
