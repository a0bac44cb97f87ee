package bench

import (
	"sync"
	"time"
)

// Pacer models the single-threaded engine as a deterministic-service
// queue: each operation reserves a service slot of its cost, and the
// caller sleeps until its slot starts. Queueing delay therefore emerges
// naturally as offered load approaches capacity — which is exactly the
// latency-vs-throughput behaviour Figure 5 sweeps.
type Pacer struct {
	mu   sync.Mutex
	next time.Time
}

// Reserve books cost of engine time and returns how long the caller must
// wait before its operation is considered serviced.
func (p *Pacer) Reserve(now time.Time, cost time.Duration) time.Duration {
	p.mu.Lock()
	start := p.next
	if start.Before(now) {
		start = now
	}
	p.next = start.Add(cost)
	p.mu.Unlock()
	return start.Add(cost).Sub(now)
}

// CostFor converts a capacity in ops/sec into a per-op cost.
func CostFor(capacity float64) time.Duration {
	if capacity <= 0 {
		return 0
	}
	return time.Duration(float64(time.Second) / capacity)
}
