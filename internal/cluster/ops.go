package cluster

import (
	"context"
	"fmt"

	"memorydb/internal/clock"
	"memorydb/internal/core"
)

// RollingUpgrade performs the N+1 rolling upgrade of §5.1/§7.1: for each
// shard, replicas are replaced first with nodes running newVersion (each
// restores from S3 + the log, never from peers), then the primary hands
// leadership over collaboratively and is replaced last. Throughout the
// transient mixed-version period, upgrade protection (§7.1) keeps
// old-version replicas from misinterpreting new-version records.
func (c *Cluster) RollingUpgrade(ctx context.Context, newVersion uint32) error {
	c.mu.Lock()
	c.cfg.EngineVersion = newVersion
	c.mu.Unlock()
	for _, sh := range c.Shards() {
		p, ok := sh.Primary()
		if !ok {
			var err error
			if p, err = sh.WaitForPrimary(c.cfg.Clock, waitPrimaryTimeout); err != nil {
				return err
			}
		}
		// Replicas first: replacements provision at the new version.
		for _, r := range sh.Replicas() {
			upgraded, err := c.ReplaceNode(r.ID())
			if err != nil {
				return fmt.Errorf("cluster: upgrading replica %s: %w", r.ID(), err)
			}
			if err := waitCaughtUp(c.cfg.Clock, sh, upgraded); err != nil {
				return err
			}
		}
		// Collaborative leadership transfer: the old primary releases its
		// lease so an upgraded replica can campaign without waiting out
		// the backoff.
		if err := p.StepDown(ctx); err != nil {
			return fmt.Errorf("cluster: stepping down %s: %w", p.ID(), err)
		}
		newP, err := sh.WaitForPrimary(c.cfg.Clock, waitPrimaryTimeout)
		if err != nil {
			return fmt.Errorf("cluster: no primary after hand-over on %s: %w", sh.ID, err)
		}
		if newP.ID() == p.ID() {
			return fmt.Errorf("cluster: old primary %s re-won leadership during upgrade", p.ID())
		}
		// Finally replace the old node (now a demoted/replica node).
		if _, err := c.ReplaceNode(p.ID()); err != nil {
			return fmt.Errorf("cluster: replacing old primary %s: %w", p.ID(), err)
		}
	}
	return nil
}

// waitCaughtUp blocks until node has applied the shard log's committed
// tail as of now, for at most waitPrimaryTimeout on clk. A node that stops
// or stalls (§7.1) fails it at once.
func waitCaughtUp(clk clock.Clock, sh *Shard, node *core.Node) error {
	target := sh.Log.CommittedTail().Seq
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clk.AfterFunc(waitPrimaryTimeout, cancel)
	switch err := node.WaitApplied(ctx, target); {
	case err == nil:
		return nil
	case ctx.Err() != nil:
		return fmt.Errorf("cluster: node %s did not catch up to %d (at %d)", node.ID(), target, node.AppliedSeq())
	default:
		return fmt.Errorf("cluster: node %s cannot catch up: %w", node.ID(), err)
	}
}
