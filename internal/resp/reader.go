package resp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unsafe"
)

// MaxBulkLen caps a single bulk string (512 MB, like Redis proto-max-bulk-len).
const MaxBulkLen = 512 << 20

// MaxArrayLen caps a single array (defensive bound).
const MaxArrayLen = 1 << 20

// maxPrealloc and maxPreallocBytes cap what is reserved on the strength
// of a declared length alone: a header of a few hostile bytes must not buy
// an allocation near MaxArrayLen elements or MaxBulkLen bytes before any
// of the promised data has arrived. Everything up to the cap is read
// exactly as if the length were trusted.
const (
	maxPrealloc      = 1024
	maxPreallocBytes = 1 << 20
)

// maxLineLen caps a header, inline or simple-string line at Redis's inline
// limit: a line that has not ended by then is hostile, not slow.
const maxLineLen = 64 << 10

// Reader decodes RESP values from a stream. It also accepts the inline
// command format ("PING\r\n") that redis-cli style tools emit.
type Reader struct {
	br *bufio.Reader
}

// NewReader wraps r in a RESP decoder with a socket-sized buffer, which is
// also the longest line it accepts.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReaderSize(r, maxLineLen)} }

// Buffered returns how many bytes have arrived that no read consumed yet:
// a read starts on them without waiting on the stream, unless they end
// inside a command.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// ReadValue decodes the next RESP value.
func (r *Reader) ReadValue() (Value, error) {
	t, err := r.br.ReadByte()
	if err != nil {
		return Value{}, err
	}
	switch Type(t) {
	case SimpleString, Error:
		line, err := r.readLine()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: Type(t), Str: bytes.Clone(line)}, nil
	case Integer:
		n, err := r.readInt()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: Integer, Int: n}, nil
	case BulkString:
		return r.readBulk()
	case Array:
		return r.readArray()
	default:
		return Value{}, fmt.Errorf("%w: unexpected type byte %q", ErrProtocol, t)
	}
}

// ReadCommand decodes the next client command: either a RESP array of bulk
// strings or an inline command line. It returns the arguments (argv[0] is
// the command name) as views of one buffer the command owns, so they stay
// valid after the next read. A command already whole in the read buffer
// is parsed there in place and costs two allocations at any arity, the
// argument list and the buffer; one split across reads is read as it
// arrives.
func (r *Reader) ReadCommand() ([][]byte, error) {
	if _, err := r.br.Peek(1); err != nil {
		return nil, err
	}
	w, _ := r.br.Peek(r.br.Buffered())
	argv, rest, err := ParseCommand(nil, w)
	switch {
	case err == errShort:
		return r.readSplit()
	case err != nil:
		return nil, err
	}
	r.br.Discard(len(w) - len(rest))
	size := 0
	for _, a := range argv {
		size += len(a)
	}
	data := make([]byte, 0, size)
	for i, a := range argv {
		data = append(data, a...)
		argv[i] = data[len(data)-len(a) : len(data) : len(data)]
	}
	return argv, nil
}

// readSplit is ReadCommand for a command not yet whole in the read buffer,
// so every byte buffered is its own: it reads the command as it arrives,
// header lines in place and each bulk by its declared length into one
// buffer that starts that large and grows.
func (r *Reader) readSplit() ([][]byte, error) {
	line, err := r.readLine()
	switch {
	case err != nil:
		return nil, err
	case len(line) == 0 || line[0] != byte(Array):
		return splitInline(bytes.Clone(line)), nil
	}
	n, err := header(line, Array, MaxArrayLen)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, 0, r.br.Buffered())
	argv := make([][]byte, 0, min(n, maxPrealloc))
	for ; n > 0; n-- {
		if line, err = r.readLine(); err != nil {
			return nil, err
		}
		m, err := header(line, BulkString, MaxBulkLen)
		if err != nil {
			return nil, err
		}
		start, end := len(raw), len(raw)+int(m)
		if raw, err = r.appendN(raw, int(m)+2); err != nil {
			return nil, err
		}
		if raw[end] != '\r' || raw[end+1] != '\n' {
			return nil, errBulkEnd
		}
		raw = raw[:end] // the next bulk overwrites the CRLF
		argv = append(argv, raw[start:])
	}
	// A view taken before raw last grew points into an old copy, but the
	// bulks lie back to back, so the lengths place every one in raw.
	off := 0
	for i, a := range argv {
		argv[i] = raw[off : off+len(a) : off+len(a)]
		off += len(a)
	}
	return argv, nil
}

// errShort reports a command that runs past the bytes at hand.
var errShort = fmt.Errorf("%w: command ends past the bytes at hand", ErrProtocol)

// errBulkEnd reports a bulk whose declared length is not followed by CRLF.
var errBulkEnd = fmt.Errorf("%w: bulk not CRLF terminated", ErrProtocol)

// ParseCommand decodes the command at the head of b in place — a RESP array
// of bulk strings, or an inline line — appending its arguments to args as
// capped views of b, and returns the bytes after it. Every length is
// checked against the bytes left before anything is reserved for it. A
// command that b ends inside of is an error.
func ParseCommand(args [][]byte, b []byte) ([][]byte, []byte, error) {
	line, rest, err := crlfLine(b)
	switch {
	case err != nil:
		return nil, nil, err
	case b[0] != byte(Array):
		return append(args, splitInline(line)...), rest, nil
	}
	n, err := header(line, Array, MaxArrayLen)
	switch {
	case err != nil:
		return nil, nil, err
	case n > int64(len(rest)/6): // an element takes at least the six bytes of "$0\r\n\r\n"
		return nil, nil, errShort
	}
	args = slices.Grow(args, int(n))
	for ; n > 0; n-- {
		hdr, data, err := crlfLine(rest)
		if err != nil {
			return nil, nil, err
		}
		m, err := header(hdr, BulkString, MaxBulkLen)
		switch {
		case err != nil:
			return nil, nil, err
		case m+2 > int64(len(data)):
			return nil, nil, errShort
		case data[m] != '\r' || data[m+1] != '\n':
			return nil, nil, errBulkEnd
		}
		args = append(args, data[:m:m])
		rest = data[m+2:]
	}
	return args, rest, nil
}

// header reads the length a command's header line of type t declares,
// which must lie in [0, limit]. ReadCommand and ParseCommand both take
// their limits from here.
func header(line []byte, t Type, limit int64) (int64, error) {
	n, ok := int64(0), len(line) > 0 && line[0] == byte(t)
	if ok {
		n, ok = parseInt(line[1:])
	}
	if !ok || n < 0 || n > limit {
		return 0, fmt.Errorf("%w: bad %c header %q", ErrProtocol, t, line)
	}
	return n, nil
}

// crlfLine splits b after its first line, which must end in CRLF, and
// returns the line without it.
func crlfLine(b []byte) (line, rest []byte, err error) {
	switch i := bytes.IndexByte(b, '\n'); {
	case i < 0:
		return nil, nil, errShort
	case i < 1 || b[i-1] != '\r':
		return nil, nil, fmt.Errorf("%w: line not CRLF terminated", ErrProtocol)
	default:
		return b[:i-1], b[i+1:], nil
	}
}

// splitInline splits an inline command line at spaces and tabs into its
// arguments, each a capped view of line.
func splitInline(line []byte) [][]byte {
	var out [][]byte
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		if i > start {
			out = append(out, line[start:i:i])
		}
	}
	return out
}

func (r *Reader) readBulk() (Value, error) {
	n, err := r.readInt()
	if err != nil {
		return Value{}, err
	}
	if n == -1 {
		return Value{Type: BulkString, Null: true}, nil
	}
	if n < 0 || n > MaxBulkLen {
		return Value{}, fmt.Errorf("%w: bad bulk length %d", ErrProtocol, n)
	}
	buf, err := r.appendN(nil, int(n)+2)
	if err != nil {
		return Value{}, err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return Value{}, errBulkEnd
	}
	return Value{Type: BulkString, Str: buf[:n]}, nil
}

// appendN appends the next n bytes of the stream to dst. Past
// maxPreallocBytes it grows dst fourfold as the bytes arrive rather than
// trusting n up front.
func (r *Reader) appendN(dst []byte, n int) ([]byte, error) {
	for n > 0 {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, min(n, max(maxPreallocBytes, 3*len(dst))))
		}
		k := min(n, cap(dst)-len(dst))
		if _, err := io.ReadFull(r.br, dst[len(dst):len(dst)+k]); err != nil {
			return nil, err
		}
		dst, n = dst[:len(dst)+k], n-k
	}
	return dst, nil
}

func (r *Reader) readArray() (Value, error) {
	n, err := r.readInt()
	if err != nil {
		return Value{}, err
	}
	if n == -1 {
		return Value{Type: Array, Null: true}, nil
	}
	if n < 0 || n > MaxArrayLen {
		return Value{}, fmt.Errorf("%w: bad array length %d", ErrProtocol, n)
	}
	// No list is reserved on the declared length: nested headers would
	// each reserve one from the same few bytes.
	var vs []Value
	for i := int64(0); i < n; i++ {
		v, err := r.ReadValue()
		if err != nil {
			return Value{}, err
		}
		vs = append(vs, v)
	}
	return Value{Type: Array, Array: vs}, nil
}

// readLine returns the next line without its CRLF, as a view of the read
// buffer that the next read overwrites. A line longer than maxLineLen is
// a protocol error.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	switch {
	case err == bufio.ErrBufferFull || len(line) > maxLineLen:
		return nil, fmt.Errorf("%w: line longer than %d bytes", ErrProtocol, maxLineLen)
	case err != nil:
		return nil, err
	case len(line) < 2 || line[len(line)-2] != '\r':
		return nil, fmt.Errorf("%w: line not CRLF terminated", ErrProtocol)
	}
	return line[:len(line)-2], nil
}

func (r *Reader) readInt() (int64, error) {
	line, err := r.readLine()
	if err != nil {
		return 0, err
	}
	n, ok := parseInt(line)
	if !ok {
		return 0, fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
	}
	return n, nil
}

// parseInt parses a decimal int64 in place: strconv reads b through a
// string view, and an error it returns holds its own copy.
func parseInt(b []byte) (int64, bool) {
	n, err := strconv.ParseInt(unsafe.String(unsafe.SliceData(b), len(b)), 10, 64)
	return n, err == nil
}
