// Package server is the TCP front-end: it speaks RESP to clients,
// maintains per-connection state (MULTI transactions, READONLY opt-in),
// and forwards commands to a backend — a single node or a cluster
// dispatcher. One goroutine per connection pipelines, as the paper's
// §6.1.1 Enhanced IO Multiplexing does with its IO threads: it reads every
// whole command already buffered and hands them to the node as one run
// before it waits on any, then writes their replies in order with one
// flush. The node serves a run in one turn, so a depth-N pipeline of
// writes shares one log entry and pays one commit round instead of N. A
// connection command (READONLY, MULTI, QUIT, …) ends a run: it is
// answered after everything before it, and so is a command the backend
// declines to put on the run. A backend that cannot take a run is served
// one command at a time.
package server

import (
	"context"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"memorydb/internal/core"
	"memorydb/internal/obs"
	"memorydb/internal/resp"
	"memorydb/internal/trace"
)

// ReadMode is a connection's read-consistency state, set by the
// READONLY command and its staleness knobs:
//
//	READONLY              — replica reads allowed, linearizable ladder
//	READONLY STALE <ms>   — degrade to bounded staleness before redirect
//	READONLY EVENTUAL     — legacy eventual-consistency replica reads
//	READWRITE             — back to primary-only (the zero value)
type ReadMode struct {
	// ReadOnly reflects the connection's READONLY state.
	ReadOnly bool
	// Eventual opts into eventually-consistent replica reads (no
	// freshness claim).
	Eventual bool
	// Stale, when positive, is the bounded-staleness tolerance the
	// client declared: a replica read whose linearizable freshness
	// proof fails may still be served if the replica proved itself
	// caught up within this bound.
	Stale time.Duration
}

// Backend executes commands on behalf of connections.
type Backend interface {
	// Do executes one command under the connection's read mode.
	Do(ctx context.Context, argv [][]byte, mode ReadMode) (resp.Value, error)
	// DoBatch executes a MULTI/EXEC transaction atomically.
	DoBatch(ctx context.Context, cmds [][][]byte, mode ReadMode) (resp.Value, error)
}

// Config parameterizes a server.
type Config struct {
	// Addr to listen on, e.g. "127.0.0.1:0".
	Addr    string
	Backend Backend
	// Multiplex has no effect and nothing reads it: it stays only because
	// the frozen benchmark/ module (stack.go, ladder.go) still sets it.
	// Delete it once benchmark/ stops setting it.
	Multiplex bool
	// Obs, when set, records the front-end's two write-path stages:
	// read_parse (reading+parsing a command off the socket — includes
	// wire idle time on keepalive connections) and reply_write
	// (serializing+flushing the reply). Share the node's registry so the
	// full pipeline lands in one place.
	Obs *obs.Metrics
	// Trace, when set, mints a span context at command parse for sampled
	// commands; the context rides the backend ctx so every downstream
	// component (workloop stages, log quorum, remote replica applies)
	// attaches to the same trace. Share the node's collector so TRACE GET
	// sees the full tree.
	Trace *trace.Collector
}

// Server accepts RESP connections.
type Server struct {
	cfg Config
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	ctx  context.Context
	stop context.CancelFunc
}

// New creates a server (not yet listening).
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, conns: make(map[net.Conn]struct{})}
	s.ctx, s.stop = context.WithCancel(context.Background())
	return s
}

// Start begins listening and serving.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the server and all connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.stop()
	if s.ln != nil {
		s.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// runner is the optional Backend interface the pipelined loop needs: put
// a command on a run without queueing it, returning its reply future, and
// hand the run over. Add may decline a command, which the connection then
// serves alone with Do once the run before it is answered. The server
// finds it by type assertion, as it finds ClusterOps.
type runner interface {
	Add(run *core.Run, argv [][]byte, mode ReadMode, span trace.SpanContext) (core.Call, bool)
	Submit(ctx context.Context, run *core.Run)
}

// A connection keeps at most maxInflight commands submitted and not yet
// answered, and fewer when its replies are large: each drain takes as
// many as the last flush's mean reply size fits in maxReplyBytes. At the
// bound the loop stops reading its socket, so TCP pushes back on a flood
// instead of the node holding it.
const (
	maxInflight   = 128
	maxReplyBytes = 1 << 20
)

// noteInflight, when set, sees a connection's in-flight count per drain.
var noteInflight func(int)

// inflight is a submitted command: its reply future and the root span a
// sampled command finishes when the reply is ready.
type inflight struct {
	call core.Call
	root trace.Span
}

// conn is one client connection and its protocol state (MULTI, READONLY).
// Its goroutine alternates between drain, which reads commands and puts
// them on a run, and answer, which hands the run to the node as one input,
// then waits on its replies in order and writes them; flush then sends
// them.
type conn struct {
	s    *Server
	nc   net.Conn
	r    *resp.Reader
	w    *resp.Writer
	sub  runner // nil: each command is answered before the next is read
	run  core.Run
	fifo []inflight // the run's calls, in order
	// window bounds the FIFO; replies, bytes and writeNanos are the
	// replies written since the last flush, their size and the time spent
	// encoding them.
	window, replies, bytes int
	writeNanos             int64

	mode    ReadMode
	inMulti bool
	queued  [][][]byte
}

// Write sends reply bytes to the socket, counting them.
func (c *conn) Write(p []byte) (int, error) {
	n, err := c.nc.Write(p)
	c.bytes += n
	return n, err
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()
	c := &conn{s: s, nc: nc, r: resp.NewReader(nc), window: maxInflight}
	c.w = resp.NewWriter(c)
	c.sub, _ = s.cfg.Backend.(runner)
	for {
		open := c.drain()
		if noteInflight != nil {
			noteInflight(len(c.fifo))
		}
		if !c.answer() || !c.flush() || !open {
			return
		}
	}
}

// drain reads commands and puts them on the run, in order, until the FIFO
// fills its window or reading on would wait on the socket while replies
// are owed (a client sends a whole command before it waits on replies, so
// one partly buffered is read to its end); a barrier answers the run
// before it first. It reports false once the connection is to close: the
// client hung up or quit, or sent a malformed frame, whose error reply
// follows every reply before it.
func (c *conn) drain() bool {
	m := c.s.cfg.Obs
	for len(c.fifo) < c.window {
		if c.r.Buffered() == 0 && (len(c.fifo) > 0 || c.replies > 0) {
			return true
		}
		start := obs.Now()
		argv, err := c.r.ReadCommand()
		switch {
		case err != nil:
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && c.answer() {
				c.reply(resp.Errf("ERR Protocol error: %v", err), nil, trace.Span{})
			}
			return false
		case m != nil:
			m.Stage(obs.StageReadParse).ObserveNanos(obs.Now() - start)
		}
		switch {
		case len(argv) == 0:
		case c.inMulti || connCommand(argv[0]):
			// A barrier: the command reads or changes the connection's
			// state, so everything in flight is answered before it runs.
			if !c.answer() {
				return false
			}
			reply, quit := c.handle(argv)
			if !c.reply(reply, nil, trace.Span{}) || quit {
				return false
			}
		default:
			sc, root := c.s.mintSpan(argv[0])
			if c.sub != nil {
				// argv owns its buffer, so it stays valid while later
				// commands are read.
				if call, ok := c.sub.Add(&c.run, argv, c.mode, sc); ok {
					c.fifo = append(c.fifo, inflight{call: call, root: root})
					continue
				}
			}
			// Served alone, after everything before it.
			if !c.answer() {
				return false
			}
			if v, err := c.s.cfg.Backend.Do(c.s.spanCtx(sc), argv, c.mode); !c.reply(v, err, root) {
				return false
			}
		}
	}
	return true
}

// answer submits the run drain built, then waits for every reply in order
// and writes it. It reports whether every write succeeded.
func (c *conn) answer() bool {
	if c.sub != nil {
		c.sub.Submit(c.s.ctx, &c.run)
	}
	ok := true
	for _, f := range c.fifo {
		v, _, err := f.call.Wait(c.s.ctx)
		ok = c.reply(v, err, f.root) && ok
	}
	clear(c.fifo) // drop the replies and argv they hold
	c.fifo = c.fifo[:0]
	return ok
}

// reply finishes a command's root span and encodes its reply into the
// connection's buffer.
func (c *conn) reply(v resp.Value, err error, root trace.Span) bool {
	if root.TraceID != 0 {
		c.s.cfg.Trace.Finish(root)
	}
	if err != nil {
		v = resp.Errf("ERR backend: %v", err)
	}
	start := obs.Now()
	err = c.w.WriteValue(v)
	c.writeNanos += obs.Now() - start
	c.replies++
	return err == nil
}

// flush sends the replies written since the last flush: once per drain.
// It observes reply_write once, covering their encoding and the flush,
// and sizes the next drain's window from their mean size.
func (c *conn) flush() bool {
	if c.replies == 0 {
		return true
	}
	start := obs.Now()
	err := c.w.Flush()
	if m := c.s.cfg.Obs; m != nil && err == nil {
		m.Stage(obs.StageReplyWrite).ObserveNanos(c.writeNanos + obs.Now() - start)
	}
	c.window = max(1, min(maxInflight, maxReplyBytes*c.replies/max(c.bytes, 1)))
	c.bytes, c.replies, c.writeNanos = 0, 0, 0
	return err == nil
}

// connCommand reports whether handle answers name itself: the command
// reads or changes the connection's state.
func connCommand(name []byte) bool {
	for _, c := range [...]string{"QUIT", "READONLY", "READWRITE", "MULTI", "EXEC", "DISCARD", "AUTH", "SELECT", "CLUSTER"} {
		if is(name, c) {
			return true
		}
	}
	return false
}

// handle answers a connection command, or queues a command inside MULTI.
func (c *conn) handle(argv [][]byte) (reply resp.Value, quit bool) {
	name := argv[0]
	switch {
	case is(name, "QUIT"):
		return resp.OK, true
	case is(name, "READONLY"):
		mode := ReadMode{ReadOnly: true}
		if len(argv) >= 2 {
			switch strings.ToUpper(string(argv[1])) {
			case "STALE":
				if len(argv) != 3 {
					return resp.Err("ERR wrong number of arguments for 'readonly|stale'"), false
				}
				ms, err := strconv.Atoi(string(argv[2]))
				if err != nil || ms <= 0 {
					return resp.Err("ERR invalid staleness bound"), false
				}
				mode.Stale = time.Duration(ms) * time.Millisecond
			case "EVENTUAL":
				if len(argv) != 2 {
					return resp.Err("ERR wrong number of arguments for 'readonly|eventual'"), false
				}
				mode.Eventual = true
			default:
				return resp.Err("ERR syntax error"), false
			}
		}
		c.mode = mode
		return resp.OK, false
	case is(name, "READWRITE"):
		c.mode = ReadMode{}
		return resp.OK, false
	case is(name, "MULTI"):
		if c.inMulti {
			return resp.Err("ERR MULTI calls can not be nested"), false
		}
		c.inMulti = true
		c.queued = nil
		return resp.OK, false
	case is(name, "DISCARD"):
		if !c.inMulti {
			return resp.Err("ERR DISCARD without MULTI"), false
		}
		c.inMulti = false
		c.queued = nil
		return resp.OK, false
	case is(name, "EXEC"):
		if !c.inMulti {
			return resp.Err("ERR EXEC without MULTI"), false
		}
		c.inMulti = false
		cmds := c.queued
		c.queued = nil
		if len(cmds) == 0 {
			return resp.ArrayV(), false
		}
		sc, root := c.s.mintSpan(name)
		v, err := c.s.cfg.Backend.DoBatch(c.s.spanCtx(sc), cmds, c.mode)
		if root.TraceID != 0 {
			c.s.cfg.Trace.Finish(root)
		}
		if err != nil {
			return resp.Errf("ERR backend: %v", err), false
		}
		return v, false
	case is(name, "AUTH"):
		// Authentication/ACLs are control-plane features we accept and
		// ignore in this reproduction.
		return resp.OK, false
	case is(name, "CLUSTER"):
		if co, ok := c.s.cfg.Backend.(ClusterOps); ok {
			return co.ClusterCommand(c.s.ctx, argv), false
		}
		return resp.Err("ERR This instance has cluster support disabled"), false
	case is(name, "SELECT"):
		if len(argv) == 2 && string(argv[1]) == "0" {
			return resp.OK, false
		}
		return resp.Err("ERR DB index is out of range"), false
	}

	// Inside MULTI: queue, and EXEC answers even a malformed command in its
	// place. argv owns its buffer, so the queue keeps it as read.
	c.queued = append(c.queued, argv)
	return resp.Queued, false
}

// is reports whether name is the upper-case command c, in any case,
// without allocating.
func is(name []byte, c string) bool {
	return len(name) == len(c) && strings.EqualFold(c, string(name))
}

// mintSpan draws the sampling coin at command parse. On a hit it returns
// the fresh trace's span context (the backend's stages become children)
// plus the front-end root span, named for the command and finished when
// the reply is ready to write; on a miss both are zero.
func (s *Server) mintSpan(name []byte) (trace.SpanContext, trace.Span) {
	if s.cfg.Trace == nil {
		return trace.SpanContext{}, trace.Span{}
	}
	sc, ok := s.cfg.Trace.Sample()
	if !ok {
		return trace.SpanContext{}, trace.Span{}
	}
	return sc, s.cfg.Trace.Root(sc, "cmd:"+strings.ToUpper(string(name)), "server")
}

// spanCtx is the server's ctx carrying sc, if it is set, for a backend
// that takes its span context from the ctx.
func (s *Server) spanCtx(sc trace.SpanContext) context.Context {
	if sc.TraceID == 0 {
		return s.ctx
	}
	return trace.NewContext(s.ctx, sc)
}
