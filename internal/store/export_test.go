package store

import "time"

// SweepExpired removes up to limit keys whose TTL has passed at now and
// returns them. The engine replicates each as a delete so that replicas and
// the transaction log observe deterministic expiry.
func (db *DB) SweepExpired(now time.Time, limit int) []string {
	return db.SweepExpiredParts(now, limit, 0, NumParts)
}
