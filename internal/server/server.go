// Package server is the TCP front-end: it speaks RESP to clients,
// maintains per-connection state (MULTI transactions, READONLY opt-in),
// and forwards commands to a backend — a single node or a cluster
// dispatcher. One goroutine per connection reads a command, calls the
// backend itself and writes the reply; the paper's §6.1.1 Enhanced IO
// Multiplexing is reproduced as a capacity model in internal/bench, not
// here.
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

// connState holds per-connection protocol state.
type connState struct {
	mode     ReadMode
	inMulti  bool
	queued   [][][]byte
	multiErr bool
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := resp.NewReader(conn)
	w := resp.NewWriter(conn)
	st := &connState{}
	m := s.cfg.Obs
	for {
		var readStart int64
		if m != nil {
			readStart = obs.Now()
		}
		argv, err := r.ReadCommand()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				// Protocol error: best-effort error reply, then close.
				_ = w.WriteValue(resp.Errf("ERR Protocol error: %v", err))
				_ = w.Flush()
			}
			return
		}
		if m != nil {
			m.Stage(obs.StageReadParse).ObserveNanos(obs.Now() - readStart)
		}
		if len(argv) == 0 {
			continue
		}
		reply, quit := s.handle(st, argv)
		var writeStart int64
		if m != nil {
			writeStart = obs.Now()
		}
		if err := w.WriteValue(reply); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		if m != nil {
			m.Stage(obs.StageReplyWrite).ObserveNanos(obs.Now() - writeStart)
		}
		if quit {
			return
		}
	}
}

// handle processes one command against the connection state, forwarding
// to the backend when appropriate.
func (s *Server) handle(st *connState, argv [][]byte) (reply resp.Value, quit bool) {
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
		st.mode = mode
		return resp.OK, false
	case is(name, "READWRITE"):
		st.mode = ReadMode{}
		return resp.OK, false
	case is(name, "MULTI"):
		if st.inMulti {
			return resp.Err("ERR MULTI calls can not be nested"), false
		}
		st.inMulti = true
		st.queued = nil
		st.multiErr = false
		return resp.OK, false
	case is(name, "DISCARD"):
		if !st.inMulti {
			return resp.Err("ERR DISCARD without MULTI"), false
		}
		st.inMulti = false
		st.queued = nil
		return resp.OK, false
	case is(name, "EXEC"):
		if !st.inMulti {
			return resp.Err("ERR EXEC without MULTI"), false
		}
		st.inMulti = false
		cmds := st.queued
		st.queued = nil
		if st.multiErr {
			return resp.Err("EXECABORT Transaction discarded because of previous errors."), false
		}
		if len(cmds) == 0 {
			return resp.ArrayV(), false
		}
		ctx, root, traced := s.mintSpan(name)
		v, err := s.cfg.Backend.DoBatch(ctx, cmds, st.mode)
		if traced {
			s.cfg.Trace.Finish(root)
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
		if co, ok := s.cfg.Backend.(ClusterOps); ok {
			return co.ClusterCommand(s.ctx, argv), false
		}
		return resp.Err("ERR This instance has cluster support disabled"), false
	case is(name, "SELECT"):
		if len(argv) == 2 && string(argv[1]) == "0" {
			return resp.OK, false
		}
		return resp.Err("ERR DB index is out of range"), false
	}

	if st.inMulti {
		// Queue; malformed commands poison the transaction like Redis. argv
		// owns its buffer, so the queue keeps it as read.
		st.queued = append(st.queued, argv)
		return resp.Queued, false
	}

	ctx, root, traced := s.mintSpan(name)
	v, err := s.cfg.Backend.Do(ctx, argv, st.mode)
	if traced {
		s.cfg.Trace.Finish(root)
	}
	if err != nil {
		return resp.Errf("ERR backend: %v", err), false
	}
	return v, false
}

// is reports whether name is the upper-case command c, in any case,
// without allocating.
func is(name []byte, c string) bool {
	return len(name) == len(c) && strings.EqualFold(c, string(name))
}

// mintSpan draws the sampling coin at command parse. On a hit it returns
// a ctx carrying the fresh trace's span context (the backend's stages
// become children) plus the front-end root span, named for the command
// and finished when the reply is ready to write.
func (s *Server) mintSpan(name []byte) (context.Context, trace.Span, bool) {
	if s.cfg.Trace == nil {
		return s.ctx, trace.Span{}, false
	}
	sc, ok := s.cfg.Trace.Sample()
	if !ok {
		return s.ctx, trace.Span{}, false
	}
	root := s.cfg.Trace.Root(sc, "cmd:"+strings.ToUpper(string(name)), "server")
	return trace.NewContext(s.ctx, sc), root, true
}
