package store

import "time"

// SweepExpired removes up to limit keys whose TTL has passed at now and
// returns them, sweeping the parts in order.
func (db *DB) SweepExpired(now time.Time, limit int) []string {
	return db.sweepParts(now, limit, 0, NumParts)
}

// sweepParts sweeps parts [lo, hi) in order until limit keys are reaped.
func (db *DB) sweepParts(now time.Time, limit, lo, hi int) []string {
	var out []string
	for i := lo; i < hi && len(out) < limit; i++ {
		out = append(out, db.SweepExpiredPart(now, limit-len(out), i)...)
	}
	return out
}
