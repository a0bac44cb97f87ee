package cluster

import (
	"fmt"

	"memorydb/internal/core"
	"memorydb/internal/trace"
)

// Crash lifecycle. ReplaceNode models the control plane's deliberate
// recovery action: a clean terminate followed by a fresh provision. The
// operations here model the *un*planned version — a process killed at an
// arbitrary instruction with no cleanup — and the two ways history can
// continue afterwards:
//
//   - Restart: a replacement process comes up under the same identity and
//     rebuilds exclusively from durable sources (S3 snapshot + log
//     suffix), never from the dead process's memory.
//   - Resurrect: the "dead" process was only stalled (GC pause, network
//     partition healing, VM migration) and resumes with all its stale
//     beliefs intact — the zombie primary the log's conditional-append
//     fencing and expired lease must neutralize (§4.1.3).

// findNode locates nodeID and its shard.
func (c *Cluster) findNode(nodeID string) (*Shard, *core.Node, bool) {
	for _, sh := range c.Shards() {
		for _, n := range sh.Nodes() {
			if n.ID() == nodeID {
				return sh, n, true
			}
		}
	}
	return nil, nil, false
}

// Kill crash-freezes nodeID: every goroutine of the node parks at its
// next crash gate with no cleanup, no replies, and any in-flight appends
// left in limbo. The node stays in the shard's member list (the control
// plane doesn't instantly know a process died) but is skipped by routing.
func (c *Cluster) Kill(nodeID string) error {
	_, n, ok := c.findNode(nodeID)
	if !ok {
		return fmt.Errorf("cluster: no node %q", nodeID)
	}
	if n.Stopped() {
		return fmt.Errorf("cluster: node %q already terminated", nodeID)
	}
	c.nodeFlight(nodeID).Record(trace.EvKill, 0, "process crash-frozen by nemesis")
	n.Freeze()
	return nil
}

// Restart replaces a killed node with a fresh process under the same
// identity (ID and AZ). The dead incarnation is torn down — Stop unblocks
// its parked goroutines, which unwind without side effects — and the
// replacement resyncs from the latest usable S3 snapshot plus the
// transaction-log suffix, exactly like any recovering node (§4.2.1). The
// killed process's memory contributes nothing.
func (c *Cluster) Restart(nodeID string) (*core.Node, error) {
	sh, n, ok := c.findNode(nodeID)
	if !ok {
		return nil, fmt.Errorf("cluster: no node %q", nodeID)
	}
	if !n.Frozen() && !n.Stopped() {
		return nil, fmt.Errorf("cluster: node %q is alive; Kill it first", nodeID)
	}
	az := n.AZ()
	c.nodeFlight(nodeID).Record(trace.EvRestart, 0, "replacement process provisioned under same identity")
	n.Stop()
	sh.mu.Lock()
	for i, m := range sh.nodes {
		if m == n {
			sh.nodes = append(sh.nodes[:i], sh.nodes[i+1:]...)
			sh.nodesChangedLocked()
			break
		}
	}
	sh.mu.Unlock()
	return c.addNodeAs(sh, nodeID, az)
}

// Resurrect thaws a killed node in place: the zombie case. The process
// resumes exactly where it froze — possibly mid-append, holding a lease
// that expired while it was dead — and must be fenced by the log's
// conditional append before it can acknowledge anything.
func (c *Cluster) Resurrect(nodeID string) error {
	_, n, ok := c.findNode(nodeID)
	if !ok {
		return fmt.Errorf("cluster: no node %q", nodeID)
	}
	if n.Stopped() {
		return fmt.Errorf("cluster: node %q was terminated, not frozen", nodeID)
	}
	c.nodeFlight(nodeID).Record(trace.EvResurrect, 0, "frozen process thawed in place (zombie)")
	n.Thaw()
	return nil
}
