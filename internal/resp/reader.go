package resp

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
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

// Reader decodes RESP values from a stream. It also accepts the inline
// command format ("PING\r\n") that redis-cli style tools emit.
type Reader struct {
	br *bufio.Reader
}

// NewReader wraps r in a RESP decoder with a socket-sized buffer.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReaderSize(r, 64<<10)} }

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
		return Value{Type: Type(t), Str: line}, nil
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
// strings or an inline command line. It returns the arguments as byte
// slices (argv[0] is the command name).
func (r *Reader) ReadCommand() ([][]byte, error) {
	t, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if Type(t) != Array {
		// Inline command: rest of the line, space separated.
		if err := r.br.UnreadByte(); err != nil {
			return nil, err
		}
		line, err := r.readLine()
		if err != nil {
			return nil, err
		}
		return SplitInline(line), nil
	}
	n, err := r.readInt()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > MaxArrayLen {
		return nil, fmt.Errorf("%w: bad multibulk length %d", ErrProtocol, n)
	}
	argv := make([][]byte, 0, min(n, maxPrealloc))
	for i := int64(0); i < n; i++ {
		tb, err := r.br.ReadByte()
		if err != nil {
			return nil, err
		}
		if Type(tb) != BulkString {
			return nil, fmt.Errorf("%w: expected bulk string in command array, got %q", ErrProtocol, tb)
		}
		v, err := r.readBulk()
		if err != nil {
			return nil, err
		}
		if v.Null {
			return nil, fmt.Errorf("%w: null bulk in command", ErrProtocol)
		}
		argv = append(argv, v.Str)
	}
	return argv, nil
}

// SplitInline splits an inline command line at spaces and tabs into its
// arguments, each a capped view of line.
func SplitInline(line []byte) [][]byte {
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
	// Past maxPreallocBytes, grow toward the declared length fourfold as
	// the bytes arrive rather than trusting it up front.
	buf := make([]byte, min(n, maxPreallocBytes)+2)
	for filled := 0; ; {
		if _, err := io.ReadFull(r.br, buf[filled:]); err != nil {
			return Value{}, err
		}
		if filled = len(buf); int64(filled) == n+2 {
			break
		}
		grown := make([]byte, min(n+2, 4*int64(filled)))
		copy(grown, buf)
		buf = grown
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return Value{}, fmt.Errorf("%w: bulk not CRLF terminated", ErrProtocol)
	}
	return Value{Type: BulkString, Str: buf[:n]}, nil
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
	vs := make([]Value, 0, min(n, maxPrealloc))
	for i := int64(0); i < n; i++ {
		v, err := r.ReadValue()
		if err != nil {
			return Value{}, err
		}
		vs = append(vs, v)
	}
	return Value{Type: Array, Array: vs}, nil
}

func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line not CRLF terminated", ErrProtocol)
	}
	return line[:len(line)-2], nil
}

func (r *Reader) readInt() (int64, error) {
	line, err := r.readLine()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
	}
	return n, nil
}
