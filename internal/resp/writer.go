package resp

import (
	"bufio"
	"io"
	"slices"
	"strconv"
)

// Writer encodes RESP values onto a stream with internal buffering; callers
// must Flush to push bytes to the underlying writer.
type Writer struct {
	bw *bufio.Writer
	// scratch assembles small frames (type byte + integer + CRLF) so each
	// header costs one buffered Write instead of three; it is reused across
	// calls to keep the per-reply hot path allocation-free.
	scratch []byte
}

// NewWriter wraps w in a RESP encoder.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 64<<10)}
}

// WriteValue encodes v.
func (w *Writer) WriteValue(v Value) error {
	switch v.Type {
	case SimpleString, Error:
		if err := w.bw.WriteByte(byte(v.Type)); err != nil {
			return err
		}
		if _, err := w.bw.Write(v.Str); err != nil {
			return err
		}
		return w.crlf()
	case Integer:
		return w.writeHeader(':', v.Int)
	case BulkString:
		if v.Null {
			_, err := w.bw.WriteString("$-1\r\n")
			return err
		}
		if err := w.writeHeader('$', int64(len(v.Str))); err != nil {
			return err
		}
		if _, err := w.bw.Write(v.Str); err != nil {
			return err
		}
		return w.crlf()
	case Array:
		if v.Null {
			_, err := w.bw.WriteString("*-1\r\n")
			return err
		}
		if err := w.writeHeader('*', int64(len(v.Array))); err != nil {
			return err
		}
		for _, e := range v.Array {
			if err := w.WriteValue(e); err != nil {
				return err
			}
		}
		return nil
	}
	return ErrProtocol
}

// WriteCommand encodes argv as an array of bulk strings (the client →
// server command format, also used in the replication stream).
func (w *Writer) WriteCommand(argv ...[]byte) error {
	if err := w.writeHeader('*', int64(len(argv))); err != nil {
		return err
	}
	for _, a := range argv {
		if err := w.writeHeader('$', int64(len(a))); err != nil {
			return err
		}
		if _, err := w.bw.Write(a); err != nil {
			return err
		}
		if err := w.crlf(); err != nil {
			return err
		}
	}
	return nil
}

// WriteCommandStrings is WriteCommand over string arguments.
func (w *Writer) WriteCommandStrings(argv ...string) error {
	bs := make([][]byte, len(argv))
	for i, s := range argv {
		bs[i] = []byte(s)
	}
	return w.WriteCommand(bs...)
}

// Flush pushes buffered bytes to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Buffered reports the number of bytes waiting to be flushed.
func (w *Writer) Buffered() int { return w.bw.Buffered() }

func (w *Writer) crlf() error {
	_, err := w.bw.WriteString("\r\n")
	return err
}

// writeHeader emits a one-line frame header — the type byte, a decimal
// integer, and CRLF — as a single buffered Write, formatting the integer
// with strconv.AppendInt into the writer's reusable scratch buffer.
func (w *Writer) writeHeader(prefix byte, n int64) error {
	w.scratch = append(w.scratch[:0], prefix)
	w.scratch = strconv.AppendInt(w.scratch, n, 10)
	w.scratch = append(w.scratch, '\r', '\n')
	_, err := w.bw.Write(w.scratch)
	return err
}

// AppendCommand appends argv — strings or []byte alike — to dst in RESP
// command format: a client command, a replication effect, an AOF record.
// dst grows at most once, by exactly the command's size, so a record built
// on a nil dst carries no spare capacity beyond its size class.
func AppendCommand[T ~string | ~[]byte](dst []byte, argv ...T) []byte {
	size := 1 + intLen(int64(len(argv))) + 2
	for _, a := range argv {
		size += 1 + intLen(int64(len(a))) + 2 + len(a) + 2
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(argv)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range argv {
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(a)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, a...)
		dst = append(dst, '\r', '\n')
	}
	return dst
}

// EncodeCommand renders argv in RESP command format into a fresh byte
// slice.
func EncodeCommand(argv ...[]byte) []byte { return AppendCommand(nil, argv...) }

// EncodeCommandStrings is EncodeCommand over strings.
func EncodeCommandStrings(argv ...string) []byte { return AppendCommand(nil, argv...) }

func intLen(n int64) int {
	if n == 0 {
		return 1
	}
	l := 0
	if n < 0 {
		l = 1
		n = -n
	}
	for n > 0 {
		l++
		n /= 10
	}
	return l
}
