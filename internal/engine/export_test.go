package engine

import "memorydb/internal/store"

// SweepExpired proactively expires up to limit keys, producing DEL effects
// for each (the active expiry cycle).
func (e *Engine) SweepExpired(limit int) Result {
	return e.SweepExpiredParts(limit, 0, store.NumParts)
}
