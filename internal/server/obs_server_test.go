package server

import (
	"strconv"
	"testing"
	"time"

	"memorydb/internal/netsim"
	"memorydb/internal/obs"
)

// TestServerRecordsFrontEndStages checks that the TCP front-end feeds the
// shared registry: after a few commands over a real socket, read_parse and
// reply_write both carry samples. A pipeline observes read_parse once per
// command and reply_write once per flush: in front of a node, which takes
// a whole pipeline before it answers any, a depth-32 pipeline is 32
// read_parse samples and one reply_write, two if its bytes arrive in two
// reads.
func TestServerRecordsFrontEndStages(t *testing.T) {
	m := obs.New(obs.Options{})
	srv := New(Config{Addr: "127.0.0.1:0", Backend: NodeBackend{Node: startPrimary(t, netsim.Zero{})}, Obs: m})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	c := dial(t, srv.Addr().String())
	const cmds = 5
	for i := 0; i < cmds; i++ {
		if v := c.do(t, "PING"); v.Text() != "PONG" {
			t.Fatalf("PING = %v", v)
		}
	}

	// The server stamps reply_write after the write returns, which can be
	// after the client has already read the reply: wait for the last stamp.
	for deadline := time.Now().Add(time.Second); m.Stage(obs.StageReplyWrite).Count() < cmds && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := m.Stage(obs.StageReadParse).Count(); got < cmds {
		t.Errorf("read_parse count = %d, want >= %d", got, cmds)
	}
	if got := m.Stage(obs.StageReplyWrite).Count(); got < cmds {
		t.Errorf("reply_write count = %d, want >= %d", got, cmds)
	}
	if max := m.Stage(obs.StageReplyWrite).Max(); max <= 0 || max > time.Second {
		t.Errorf("reply_write max = %v, want small positive duration", max)
	}

	const depth = 32
	pm := obs.New(obs.Options{})
	psrv := New(Config{Addr: "127.0.0.1:0", Backend: NodeBackend{Node: startPrimary(t, netsim.Zero{})}, Obs: pm})
	if err := psrv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(psrv.Close)
	pc := dial(t, psrv.Addr().String())
	for i := 0; i < depth; i++ {
		pc.w.WriteCommandStrings("SET", "k", strconv.Itoa(i))
	}
	if err := pc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		if v, err := pc.r.ReadValue(); err != nil || v.Text() != "OK" {
			t.Fatalf("pipelined SET %d = %v, %v", i, v, err)
		}
	}
	// The last stamp can land after the client read the reply: Close waits
	// for the connection's goroutine.
	psrv.Close()
	if got := pm.Stage(obs.StageReadParse).Count(); got != depth {
		t.Errorf("pipelined read_parse count = %d, want %d", got, depth)
	}
	if got := pm.Stage(obs.StageReplyWrite).Count(); got < 1 || got > 2 {
		t.Errorf("pipelined reply_write count = %d, want 1 or 2", got)
	}
}
