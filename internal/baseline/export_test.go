package baseline

import (
	"context"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/engine"
	"memorydb/internal/resp"
)

// The AOF surface only the tests drive: building one, reading its two
// halves, and restarting a node from its durable prefix.

// NewAOF returns an AOF with the given policy.
func NewAOF(mode FsyncMode, fsyncLatency time.Duration, clk clock.Clock) *AOF {
	if clk == nil {
		clk = clock.NewReal()
	}
	return &AOF{Mode: mode, FsyncLatency: fsyncLatency, Clock: clk, lastSync: clk.Now()}
}

// DurableBytes returns the size of the synced prefix.
func (a *AOF) DurableBytes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.synced.Len()
}

// UnsyncedBytes returns the size of the tail that a crash would lose.
func (a *AOF) UnsyncedBytes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.unsynced.Len()
}

// RecoverInto replays the durable prefix into a fresh node — the state a
// crashed single node restarts with. Unsynced bytes are lost, exactly as
// after a power failure.
func (a *AOF) RecoverInto(ctx context.Context, n *Node) error {
	a.mu.Lock()
	data := append([]byte(nil), a.synced.Bytes()...)
	a.mu.Unlock()
	cmds, err := engine.DecodeRecord(data)
	if err != nil {
		return err
	}
	return n.ExecInWorkloop(ctx, func() {
		for _, argv := range cmds {
			n.eng.Exec(argv)
		}
	})
}

// ExecInWorkloop runs fn inside the workloop (BGSave-style consistent
// access to the keyspace).
func (n *Node) ExecInWorkloop(ctx context.Context, fn func()) error {
	_, err := n.submit(ctx, &task{snapshotW: fn, reply: make(chan resp.Value, 1)})
	return err
}
