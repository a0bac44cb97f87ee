package engine

import "memorydb/internal/store"

// SweepExpired proactively expires up to limit keys, producing DEL effects
// for each (the active expiry cycle).
func (e *Engine) SweepExpired(limit int) Result {
	return e.SweepExpiredParts(limit, 0, store.NumParts)
}

// execBatch is ExecBatch resolving the batch itself, as the node does.
func (e *Engine) execBatch(batch [][][]byte) Result {
	cmds := make([]*Command, len(batch))
	for i, argv := range batch {
		cmds[i] = lookupArgv(argv)
	}
	return e.ExecBatch(batch, cmds)
}
