package server

import (
	"testing"
	"time"

	"memorydb/internal/baseline"
	"memorydb/internal/obs"
)

// TestServerRecordsFrontEndStages checks that the TCP front-end feeds the
// shared registry: after a few commands over a real socket, read_parse and
// reply_write both carry samples.
func TestServerRecordsFrontEndStages(t *testing.T) {
	m := obs.New(obs.Options{})
	node := baseline.NewPrimary(baseline.Config{NodeID: "b1"})
	t.Cleanup(node.Stop)
	srv := New(Config{Addr: "127.0.0.1:0", Backend: BaselineBackend{Node: node}, Obs: m})
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
}
