package core

import (
	"context"

	"memorydb/internal/store"
)

// Parked returns the number of reads currently parked.
func (g *ReadGate) Parked() int { return g.trk.PendingCount() }

// Fenced returns how many watermark pairs were rejected by epoch fencing.
func (g *ReadGate) Fenced() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fenced
}

// liveDB returns the node's keyspace, read on the workloop that owns it
// (nil when the node stopped).
func (n *Node) liveDB() *store.DB {
	var db *store.DB
	if n.run(context.Background(), func() error {
		db = n.eng.DB()
		return nil
	}) != nil {
		return nil
	}
	return db
}

// fifo returns how many issued entries the node has yet to answer for and
// how many gated reads they hold, read on the workloop that owns them.
func (n *Node) fifo() (entries, reads int) {
	n.run(context.Background(), func() error {
		entries = len(n.issued)
		for _, e := range n.issued {
			reads += len(e.reads)
		}
		return nil
	})
	return entries, reads
}
