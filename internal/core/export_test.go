package core

import (
	"context"
	"time"

	"memorydb/internal/store"
)

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

// parkedReads returns how many tasks wait on the node's list of parked
// reads, read on the workloop that owns it.
func (n *Node) parkedReads() (parked int) {
	n.run(context.Background(), func() error {
		parked = len(n.parked)
		return nil
	})
	return parked
}

// stalenessNow returns the replica-local staleness at the node's clock,
// read on the workloop that owns the caught-up proof.
func (n *Node) stalenessNow() (d time.Duration) {
	n.run(context.Background(), func() error {
		d = n.staleness(n.clk.Now())
		return nil
	})
	return d
}
