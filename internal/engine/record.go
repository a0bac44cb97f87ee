package engine

import (
	"bytes"
	"fmt"
	"slices"

	"memorydb/internal/resp"
)

// DecodeRecord parses a record payload back into its command argvs. It
// runs once per log entry on every path that consumes the log, so it
// copies nothing: each argument is a capped view of record (b[:m:m]), and
// the argvs are windows of one slice of them. Exec and Apply copy any
// argument bytes they keep, which is what makes the views safe. It
// accepts what resp.Reader.ReadCommand accepts, inline commands included,
// except that a record ending inside a command is an error rather than
// the end of the record.
func DecodeRecord(record []byte) ([][][]byte, error) {
	var cmds [][][]byte
	var args [][]byte
	for b := record; len(b) > 0; {
		start := len(args)
		line, rest, err := crlfLine(b)
		switch {
		case err != nil:
		case b[0] == '*':
			args, rest, err = decodeArray(args, line[1:], rest)
		default:
			args = append(args, resp.SplitInline(line)...)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: bad replication record: %w", err)
		}
		cmds = append(cmds, args[start:len(args):len(args)])
		b = rest
	}
	return cmds, nil
}

// decodeArray appends to args the bulk strings of a RESP array whose
// header line, past the '*', is count and whose elements start b. Every
// length is checked against the bytes left before anything is reserved
// for it: an element takes at least the six bytes of "$0\r\n\r\n".
func decodeArray(args [][]byte, count, b []byte) ([][]byte, []byte, error) {
	n, ok := parseInt(count)
	if !ok || n < 0 || n > resp.MaxArrayLen || n > int64(len(b)/6) {
		return nil, nil, fmt.Errorf("%w: bad multibulk length %q with %d bytes left", resp.ErrProtocol, count, len(b))
	}
	args = slices.Grow(args, int(n))
	for ; n > 0; n-- {
		hdr, rest, err := crlfLine(b)
		if err != nil || b[0] != '$' {
			return nil, nil, fmt.Errorf("%w: expected bulk string in command array", resp.ErrProtocol)
		}
		m, ok := parseInt(hdr[1:])
		if !ok || m < 0 || m > resp.MaxBulkLen || m+2 > int64(len(rest)) || rest[m] != '\r' || rest[m+1] != '\n' {
			return nil, nil, fmt.Errorf("%w: bad bulk %q with %d bytes left", resp.ErrProtocol, hdr, len(rest))
		}
		args = append(args, rest[:m:m])
		b = rest[m+2:]
	}
	return args, b, nil
}

// crlfLine splits b after its first line, which must end in CRLF, and
// returns the line without it.
func crlfLine(b []byte) (line, rest []byte, err error) {
	i := bytes.IndexByte(b, '\n')
	if i < 1 || b[i-1] != '\r' {
		return nil, nil, fmt.Errorf("%w: line not CRLF terminated", resp.ErrProtocol)
	}
	return b[:i-1], b[i+1:], nil
}
