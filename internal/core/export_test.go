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

// issuedSeq returns the sequencer tail, read on the workloop that owns it.
func (n *Node) issuedSeq() uint64 {
	var seq uint64
	if n.run(context.Background(), func() error {
		seq = n.lastIssued.Seq
		return nil
	}) != nil {
		return 0
	}
	return seq
}
