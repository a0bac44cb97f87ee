package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"

	"memorydb/internal/resp"
)

// client is one Redis-protocol connection: the repository's own resp
// codec over a TCP socket (or, for the dry pass that prices the harness
// itself, over an in-memory responder).
type client struct {
	closer io.Closer
	br     *bufio.Reader
	r      *resp.Reader
	w      *resp.Writer
}

func newClient(rw io.ReadWriter) *client {
	// resp.NewReader adopts a bufio.Reader of its own size instead of
	// stacking a second buffer, so br.Peek sees exactly what r will decode.
	br := bufio.NewReaderSize(rw, 64<<10)
	c := &client{br: br, r: resp.NewReader(br), w: resp.NewWriter(rw)}
	if cl, ok := rw.(io.Closer); ok {
		c.closer = cl
	}
	return c
}

func dial(addr net.Addr) (*client, error) {
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		return nil, fmt.Errorf("dial %v: %w", addr, err)
	}
	return newClient(conn), nil
}

func (c *client) close() {
	if c.closer != nil {
		_ = c.closer.Close() // nothing buffered: every command was flushed and answered
	}
}

func (c *client) send(argv ...[]byte) error { return c.w.WriteCommand(argv...) }
func (c *client) flush() error              { return c.w.Flush() }
func (c *client) recv() (resp.Value, error) { return c.r.ReadValue() }

// awaitReply blocks until the first byte of the next reply is readable,
// which splits waiting for the server from decoding its answer.
func (c *client) awaitReply() error {
	_, err := c.br.Peek(1)
	return err
}

// do is one closed-loop round trip.
func (c *client) do(argv ...[]byte) (resp.Value, error) {
	if err := c.send(argv...); err != nil {
		return resp.Value{}, err
	}
	if err := c.flush(); err != nil {
		return resp.Value{}, err
	}
	return c.recv()
}

func isOK(v resp.Value) bool { return v.Type == resp.SimpleString && string(v.Str) == "OK" }

func isBulk(v resp.Value, want []byte) bool {
	return v.Type == resp.BulkString && !v.Null && bytes.Equal(v.Str, want)
}

// responder is the in-memory peer of the dry pass: it answers GET with
// the value the keyspace derives and anything else with +OK, from fixed
// buffers, so every allocation and every nanosecond the dry pass sees
// belongs to the harness's own client code.
type responder struct {
	ks  *keyspace
	in  []byte // unparsed request bytes
	out []byte // unread reply bytes
}

func (p *responder) Write(b []byte) (int, error) {
	p.in = append(p.in, b...)
	return len(b), nil
}

func (p *responder) Read(b []byte) (int, error) {
	for len(p.out) == 0 {
		if !p.answerOne() {
			return 0, io.EOF
		}
	}
	n := copy(b, p.out)
	p.out = p.out[:copy(p.out, p.out[n:])]
	return n, nil
}

// answerOne consumes one "*N\r\n($len\r\narg\r\n)×N" command from in.
func (p *responder) answerOne() bool {
	pos := 0
	header := func(prefix byte) (int, bool) {
		if pos >= len(p.in) || p.in[pos] != prefix {
			return 0, false
		}
		n := 0
		for pos++; pos < len(p.in) && p.in[pos] != '\r'; pos++ {
			n = n*10 + int(p.in[pos]-'0')
		}
		pos += 2
		return n, pos <= len(p.in)
	}
	argc, ok := header('*')
	if !ok {
		return false
	}
	var name, key []byte
	for i := 0; i < argc; i++ {
		n, ok := header('$')
		if !ok || pos+n+2 > len(p.in) {
			return false
		}
		switch i {
		case 0:
			name = p.in[pos : pos+n]
		case 1:
			key = p.in[pos : pos+n]
		}
		pos += n + 2
	}
	if string(name) == "GET" {
		idx := 0
		for _, d := range key[len("key:"):] {
			idx = idx*10 + int(d-'0')
		}
		p.out = append(strconv.AppendInt(append(p.out, '$'), valueLen, 10), "\r\n"...)
		p.out = appendValue(p.out, idx, p.ks.versions[idx])
		p.out = append(p.out, "\r\n"...)
	} else {
		p.out = append(p.out, "+OK\r\n"...)
	}
	p.in = p.in[:copy(p.in, p.in[pos:])]
	return true
}
