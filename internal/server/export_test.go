package server

import (
	"sync/atomic"
	"testing"
)

// watchInflight records the largest in-flight count any connection
// reaches after a drain, until the test ends. Install it before the
// server starts: connections read the hook unsynchronized.
func watchInflight(t testing.TB) *atomic.Int64 {
	var peak atomic.Int64
	noteInflight = func(n int) {
		for p := peak.Load(); int64(n) > p && !peak.CompareAndSwap(p, int64(n)); p = peak.Load() {
		}
	}
	t.Cleanup(func() { noteInflight = nil })
	return &peak
}
