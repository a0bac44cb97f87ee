package cluster

import (
	"context"
	"sync"
	"time"

	"memorydb/internal/trace"
)

// Monitor is the external monitoring service (paper §4.2, §5.1): it polls
// every node on an interval to form an external view of cluster health,
// repairs configurations that are valid to repair (stopped and
// crash-frozen nodes are replaced), and alarms on invalid ones (a shard
// with no primary in sight). Node-internal failure detection — lease
// expiry in the log — is the internal view; recovery actions consult both.
type Monitor struct {
	Cluster  *Cluster
	Interval time.Duration
	// PrimaryAlarmAfter is how long a shard may lack a primary before an
	// alarm is raised.
	PrimaryAlarmAfter time.Duration

	mu             sync.Mutex
	replaced       int
	primarylessFor map[string]time.Duration
}

// monitorFlight names the Monitor's identity-keyed ring: its alarms are
// EvAlarm events there, on the cluster's merged timeline.
const monitorFlight = "monitor"

// Tick performs one monitoring pass. Run calls this on an interval; tests
// may call it directly.
func (m *Monitor) Tick() {
	interval := m.Interval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	for _, sh := range m.Cluster.Shards() {
		for _, n := range sh.Nodes() {
			if n.Stopped() || n.Frozen() {
				// A dead node is a valid configuration to fix: provision
				// a replacement that restores from S3 + log. Terminating
				// a crash-frozen one fails the calls still waiting on it.
				if _, err := m.Cluster.ReplaceNode(n.ID()); err == nil {
					m.mu.Lock()
					m.replaced++
					m.mu.Unlock()
				}
			}
		}
		_, hasPrimary := sh.Primary() // a crash-frozen primary answers no one
		m.mu.Lock()
		if m.primarylessFor == nil {
			m.primarylessFor = make(map[string]time.Duration)
		}
		if hasPrimary {
			m.primarylessFor[sh.ID] = 0
		} else {
			m.primarylessFor[sh.ID] += interval
			limit := m.PrimaryAlarmAfter
			if limit <= 0 {
				limit = 30 * time.Second
			}
			if m.primarylessFor[sh.ID] >= limit {
				m.Cluster.nodeFlight(monitorFlight).Recordf(trace.EvAlarm, 0, "shard %s has no primary", sh.ID)
				m.primarylessFor[sh.ID] = 0
			}
		}
		m.mu.Unlock()
	}
}

// Run ticks until ctx is cancelled.
func (m *Monitor) Run(ctx context.Context) {
	interval := m.Interval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	clk := m.Cluster.Clock()
	for {
		select {
		case <-ctx.Done():
			return
		case <-clk.After(interval):
			m.Tick()
		}
	}
}
