package core

import (
	"memorydb/internal/engine"
	"memorydb/internal/store"
)

// Keyspace-sharded execution. The node partitions its keyspace into N
// sub-engines by crc16 slot range: store part i (a block of 256
// contiguous slots) belongs to shard i*N/64, so each shard owns a
// contiguous part range and every key has exactly one owner. Each shard
// runs its own workloop goroutine with a private task queue, engine view
// (over the shared DB) and group-commit buffer, so single-key commands on
// different shards execute fully in parallel. What stays global is commit
// order: every shard's flush acquires the node's sequencer (seqMu) to
// issue its transaction-log append, so the log remains one totally
// ordered stream regardless of shard count. Cross-slot and
// whole-keyspace commands run on the barrier shard (barrier.go). One
// shard is not special: it is this path with N=1.

// nodeShard is one keyspace execution shard — or, with idx -1, no tasks
// queue and no workloop, the barrier shard whose engine spans them all.
type nodeShard struct {
	idx int
	n   *Node

	// Workloop-owned state (no locking: single consumer). A barrier
	// coordinator may touch eng and gc only while the shard is parked —
	// the park/release channel handshake provides the synchronization.
	eng *engine.Engine
	// gc is the shard's group-commit buffer: mutations executed while a
	// quorum append is in flight accumulate here until flush.
	gc groupCommit
	// migStream, when non-nil, mirrors effects touching the migrating
	// slot (the slot's owner shard holds the stream). covers lists the
	// shards whose keys this shard's engine can mutate, and therefore
	// whose streams its mutations must reach: itself, or for the barrier
	// shard every execution shard (all parked while it runs).
	migStream *MigrationStream
	covers    []*nodeShard

	tasks chan *task
	// appendAcked is a coalesced wakeup: the completion loop pokes it after
	// one of this shard's flushed entries commits so the workloop flushes
	// the batch that accumulated behind the quorum round-trip.
	appendAcked chan struct{}

	// partLo and partHi bound the store parts this shard owns: [lo, hi).
	partLo, partHi int
}

// workloop is one shard's execution thread. It is pipelined for group
// commit: tasks already queued are drained greedily (mutations execute
// and buffer while a quorum append is in flight), append acknowledgements
// flush the accumulated batch, and the buffer never survives into a
// blocking wait while no append is outstanding.
func (sh *nodeShard) workloop() {
	n := sh.n
	defer n.wg.Done()
	for {
		select {
		case <-n.stopCtx.Done():
			return
		case t := <-sh.tasks:
			n.handleTask(sh, t)
		case <-sh.appendAcked:
			// The oldest in-flight append committed: flush the batch that
			// accumulated behind its quorum round-trip.
			n.flushPending(sh)
		}
		// Greedy drain: execute everything already queued before blocking
		// again, so mutations coalesce into the pending batch instead of
		// paying one wakeup (and potentially one log entry) each.
	drain:
		for {
			select {
			case <-n.stopCtx.Done():
				return
			case t := <-sh.tasks:
				n.handleTask(sh, t)
			case <-sh.appendAcked:
				n.flushPending(sh)
			default:
				break drain
			}
		}
	}
}

// shardOfKey returns the index of the shard owning key.
func (n *Node) shardOfKey(key []byte) int {
	return store.PartOfKey(key) * len(n.shards) / store.NumParts
}

// shardOfSlot returns the index of the shard owning a crc16 slot.
func (n *Node) shardOfSlot(slot uint16) int {
	return store.PartOfSlot(slot) * len(n.shards) / store.NumParts
}

// ShardOfSlot reports which of shards execution shards owns slot — the
// routing a node with that shard count applies. Exported for benchmarks
// and load-placement tooling.
func ShardOfSlot(slot uint16, shards int) int {
	if shards < 1 {
		shards = 1
	}
	if shards > store.NumParts {
		shards = store.NumParts
	}
	return store.PartOfSlot(slot) * shards / store.NumParts
}

// route decides where a client task executes: a single shard's workloop,
// or the barrier shard with every workloop quiesced.
func (n *Node) route(t *task) *nodeShard {
	switch t.kind {
	case taskCmd:
		cmd := t.cmd
		switch {
		case t.name == "WAIT":
			// WAIT covers every outstanding write, so every shard's buffer
			// must flush.
			return n.barrier
		case cmd == nil || cmd.Flags&engine.FlagLocal != 0:
			// INFO, an always-local command, or an unknown one whose error
			// reply any shard can produce.
			return n.shards[0]
		}
		keys := t.keys
		if len(keys) == 0 {
			// Keyless: whole-keyspace writes (FLUSHALL) and reads whose
			// results reflect every shard (KEYS, DBSIZE, …) take the
			// barrier; other keyless commands are shard-agnostic.
			if cmd.Writes() || cmd.Flags&engine.FlagKeyspace != 0 {
				return n.barrier
			}
			return n.shards[0]
		}
		si := n.shardOfKey(keys[0])
		for _, k := range keys[1:] {
			if n.shardOfKey(k) != si {
				n.stats.CrossSlotOps.Add(1)
				return n.barrier
			}
		}
		return n.shards[si]
	case taskBatch:
		si := -1
		for i, cmd := range t.cmds {
			if cmd == nil {
				continue
			}
			keys := cmd.Keys(t.batch[i])
			if len(keys) == 0 {
				if cmd.Writes() || cmd.Flags&engine.FlagKeyspace != 0 {
					return n.barrier
				}
				continue
			}
			for _, k := range keys {
				s := n.shardOfKey(k)
				if si == -1 {
					si = s
				} else if s != si {
					n.stats.CrossSlotOps.Add(1)
					return n.barrier
				}
			}
		}
		if si == -1 {
			si = 0
		}
		return n.shards[si]
	}
	return n.shards[0]
}

// slotShard returns the shard owning a crc16 slot (migration routing).
func (n *Node) slotShard(slot uint16) *nodeShard {
	return n.shards[n.shardOfSlot(slot)]
}
