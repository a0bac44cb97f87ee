package cluster

import (
	"fmt"

	"memorydb/internal/election"
	"memorydb/internal/trace"
)

// AddShard scales out: a new shard with no slots (use MigrateSlot to move
// load onto it).
func (c *Cluster) AddShard() (*Shard, error) { return c.addShard() }

// RemoveReplica terminates one replica of the shard.
func (c *Cluster) RemoveReplica(shardID string) error {
	sh, ok := c.ShardByID(shardID)
	if !ok {
		return fmt.Errorf("cluster: no shard %q", shardID)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i, n := range sh.nodes {
		if n.Role() == election.RoleReplica && !n.Stopped() {
			n.Stop()
			sh.nodes = append(sh.nodes[:i], sh.nodes[i+1:]...)
			sh.nodesChangedLocked()
			return nil
		}
	}
	return fmt.Errorf("cluster: shard %q has no replica to remove", shardID)
}

// MinEngineVersion returns the oldest engine version in the cluster.
func (c *Cluster) MinEngineVersion() uint32 {
	min := uint32(0)
	for v := range c.EngineVersions() {
		if min == 0 || v < min {
			min = v
		}
	}
	return min
}

// Replacements returns how many dead replicas the monitor replaced.
func (m *Monitor) Replacements() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replaced
}

// TimelineReport renders MergedTimeline as a readable incident report.
func (c *Cluster) TimelineReport() string {
	return trace.FormatTimeline(c.MergedTimeline())
}

// EngineVersions reports the distinct engine versions currently running —
// the control plane pins off-box snapshots to the minimum during
// upgrades (§7.1).
func (c *Cluster) EngineVersions() map[uint32]int {
	out := make(map[uint32]int)
	for _, sh := range c.Shards() {
		for _, n := range sh.Nodes() {
			if !n.Stopped() {
				out[n.EngineVersion()]++
			}
		}
	}
	return out
}
