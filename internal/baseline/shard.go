package baseline

// Shard groups a primary with its replicas and implements the ranked
// failover of Redis cluster (§2.2.1, §4.1): on primary failure, the
// replica with the highest locally observed replication offset is
// promoted. Because replication is asynchronous, that replica may still
// be missing acknowledged writes — the data-loss window MemoryDB closes.
type Shard struct {
	Primary  *Node
	Replicas []*Node
}

// NewShard builds a primary with n replicas sharing cfg (IDs suffixed).
func NewShard(cfg Config, replicas int) *Shard {
	p := NewPrimary(cfg)
	s := &Shard{Primary: p}
	for i := 0; i < replicas; i++ {
		rcfg := cfg
		rcfg.NodeID = cfg.NodeID + "-replica-" + string(rune('a'+i))
		rcfg.AOF = nil
		s.Replicas = append(s.Replicas, p.AddReplica(rcfg))
	}
	return s
}

// Failover kills the primary and promotes the most up-to-date replica by
// rank. It returns the new primary and how many bytes of acknowledged
// replication stream were lost in the promotion (0 means the lucky case).
func (s *Shard) Failover() (*Node, int64) {
	acked := s.Primary.MasterOffset()
	s.Primary.Stop()
	var best *Node
	for _, r := range s.Replicas {
		if best == nil || r.AckedOffset() > best.AckedOffset() {
			best = r
		}
	}
	if best == nil {
		return nil, acked
	}
	best.mu.Lock()
	best.isPrimary = true
	best.mu.Unlock()
	best.masterOffset.Store(best.AckedOffset())
	// Remaining replicas re-home to the new primary (they would resync
	// in Redis; for the model we simply reattach them).
	for _, r := range s.Replicas {
		if r == best {
			continue
		}
		best.mu.Lock()
		best.replicas = append(best.replicas, r)
		best.mu.Unlock()
	}
	lost := acked - best.AckedOffset()
	if lost < 0 {
		lost = 0
	}
	old := s.Primary
	s.Primary = best
	reps := s.Replicas[:0]
	for _, r := range s.Replicas {
		if r != best {
			reps = append(reps, r)
		}
	}
	s.Replicas = reps
	_ = old
	return best, lost
}

// Stop terminates all nodes.
func (s *Shard) Stop() {
	if s.Primary != nil {
		s.Primary.Stop()
	}
	for _, r := range s.Replicas {
		r.Stop()
	}
}
