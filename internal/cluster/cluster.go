// Package cluster implements the horizontally scaled MemoryDB deployment
// (paper §2.1, §5): shards owning slot ranges of the 16384-slot key
// space, primaries and replicas per shard placed across availability
// zones, client-side routing with MOVED redirects, a monitoring service,
// and slot migration with 2-phase-commit ownership transfer recorded in
// the transaction logs (§5.2).
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/crc16"
	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/resp"
	"memorydb/internal/snapshot"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// Config describes a cluster to provision.
type Config struct {
	Name             string
	NumShards        int
	ReplicasPerShard int
	LogService       *txlog.Service
	Snapshots        *snapshot.Manager
	Clock            clock.Clock
	AZs              []string
	// Node timing knobs, applied to every provisioned node.
	Lease, Backoff, RenewEvery time.Duration
	// ReplicaReadTimeout bounds how long a linearizable replica read
	// parks for its freshness proof before degrading (0 = core default).
	ReplicaReadTimeout time.Duration
	EngineVersion      uint32
	ChecksumEvery      int
	// RetrySeed seeds every node's transient-failure retry jitter, so
	// fixed-seed chaos schedules reproduce.
	RetrySeed int64
	// FaultSeed seeds every node's fault registry (plus a stable hash of
	// the node's identity), so fixed-seed site schedules reproduce.
	FaultSeed int64
	// Trace, when set, is shared by every node (and the log service, when
	// it carries the same collector): one command's spans land in one
	// place regardless of which process emitted them, so TRACE GET on any
	// node assembles the full cross-node tree.
	Trace *trace.Collector
	// FlightEvents sizes each node's flight-recorder ring (0 = default).
	// Rings are identity-keyed like fault registries: a restarted node
	// continues its predecessor's timeline.
	FlightEvents int
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "memorydb"
	}
	if c.NumShards == 0 {
		c.NumShards = 1
	}
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	if len(c.AZs) == 0 {
		c.AZs = []string{"az-1", "az-2", "az-3"}
	}
	return c
}

// Cluster is a provisioned set of shards.
type Cluster struct {
	cfg Config

	mu        sync.RWMutex
	shards    []*Shard
	slotOwner [crc16.NumSlots]*Shard
	// blockedSlots holds slots whose writes are briefly blocked during
	// ownership transfer (§5.2).
	blockedSlots map[uint16]bool
	nodeSeq      int
	shardSeq     int
	// faults maps nodeID → its fault registry. Keyed by identity, not
	// incarnation: a replacement process under the same ID gets the same
	// registry, so hit/fired accounting spans the node's whole identity
	// and a raised node.partition level (which cuts only the node↔txlog
	// link — clients still reach the node) outlives a restart.
	faults map[string]*faultpoint.Registry
	// flights maps nodeID → its flight-recorder ring, identity-keyed like
	// faults (see flight.go).
	flights map[string]*trace.Flight
}

// Shard is one replication group: a transaction log plus its nodes.
type Shard struct {
	ID  string
	Log *txlog.Log

	mu    sync.RWMutex
	nodes []*core.Node
}

// Nodes returns the shard's current nodes.
func (s *Shard) Nodes() []*core.Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*core.Node(nil), s.nodes...)
}

// Primary returns the shard's current primary, if any. A crash-frozen
// node is dead to routing: it may still *believe* it is primary, but no
// client can be directed at it.
func (s *Shard) Primary() (*core.Node, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, n := range s.nodes {
		if n.Role() == election.RolePrimary && !n.Stopped() && !n.Frozen() {
			return n, true
		}
	}
	return nil, false
}

// Replicas returns the shard's live replica nodes.
func (s *Shard) Replicas() []*core.Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*core.Node
	for _, n := range s.nodes {
		if n.Role() == election.RoleReplica && !n.Stopped() && !n.Frozen() {
			out = append(out, n)
		}
	}
	return out
}

// WaitForPrimary blocks until the shard has a primary or the timeout
// elapses.
func (s *Shard) WaitForPrimary(clk clock.Clock, timeout time.Duration) (*core.Node, error) {
	deadline := clk.Now().Add(timeout)
	for {
		if p, ok := s.Primary(); ok {
			return p, nil
		}
		if clk.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: shard %s has no primary after %v", s.ID, timeout)
		}
		clk.Sleep(2 * time.Millisecond)
	}
}

// New provisions and starts a cluster: one transaction log per shard,
// ReplicasPerShard+1 nodes per shard spread across AZs, and an even
// contiguous split of the 16384 slots.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.LogService == nil {
		return nil, errors.New("cluster: Config.LogService is required")
	}
	c := &Cluster{cfg: cfg, blockedSlots: make(map[uint16]bool), faults: make(map[string]*faultpoint.Registry)}
	for i := 0; i < cfg.NumShards; i++ {
		sh, err := c.addShard()
		if err != nil {
			c.Stop()
			return nil, err
		}
		lo := i * crc16.NumSlots / cfg.NumShards
		hi := (i + 1) * crc16.NumSlots / cfg.NumShards
		for s := lo; s < hi; s++ {
			c.slotOwner[s] = sh
		}
	}
	return c, nil
}

// addShard provisions a shard with its log and nodes; it owns no slots.
func (c *Cluster) addShard() (*Shard, error) {
	c.mu.Lock()
	shardID := fmt.Sprintf("%s-shard-%d", c.cfg.Name, c.shardSeq)
	c.shardSeq++
	c.mu.Unlock()
	log, err := c.cfg.LogService.CreateLog(shardID)
	if err != nil {
		return nil, err
	}
	sh := &Shard{ID: shardID, Log: log}
	for r := 0; r <= c.cfg.ReplicasPerShard; r++ {
		if _, err := c.addNode(sh); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	c.shards = append(c.shards, sh)
	c.mu.Unlock()
	return sh, nil
}

// addNode provisions one node into sh, placed round-robin across AZs.
func (c *Cluster) addNode(sh *Shard) (*core.Node, error) {
	c.mu.Lock()
	nodeID := fmt.Sprintf("%s-node-%d", sh.ID, c.nodeSeq)
	az := c.cfg.AZs[c.nodeSeq%len(c.cfg.AZs)]
	c.nodeSeq++
	c.mu.Unlock()
	return c.addNodeAs(sh, nodeID, az)
}

// nodeFaults returns (creating on first use) the fault registry for
// nodeID. Seeds are derived from FaultSeed plus a stable FNV hash of the
// node's identity, so a fixed seed reproduces the same per-node schedules
// regardless of provisioning interleaving.
func (c *Cluster) nodeFaults(nodeID string) *faultpoint.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.faults[nodeID]
	if !ok {
		var h uint64 = 14695981039346656037
		for i := 0; i < len(nodeID); i++ {
			h ^= uint64(nodeID[i])
			h *= 1099511628211
		}
		r = faultpoint.New(c.cfg.FaultSeed ^ int64(h&0x7fffffffffffffff))
		c.faults[nodeID] = r
	}
	return r
}

// addNodeAs provisions a node with a fixed identity — the restart path
// reuses the killed node's ID and AZ, exactly like a replacement process
// on the same host.
func (c *Cluster) addNodeAs(sh *Shard, nodeID, az string) (*core.Node, error) {
	n, err := core.NewNode(core.Config{
		NodeID:             nodeID,
		ShardID:            sh.ID,
		AZ:                 az,
		Log:                sh.Log,
		Clock:              c.cfg.Clock,
		EngineVersion:      c.cfg.EngineVersion,
		Lease:              c.cfg.Lease,
		Backoff:            c.cfg.Backoff,
		RenewEvery:         c.cfg.RenewEvery,
		ReplicaReadTimeout: c.cfg.ReplicaReadTimeout,
		Snapshots:          c.cfg.Snapshots,
		ChecksumEvery:      c.cfg.ChecksumEvery,
		RetrySeed:          c.cfg.RetrySeed,
		Faults:             c.nodeFaults(nodeID),
		Trace:              c.cfg.Trace,
		Flight:             c.nodeFlight(nodeID),
	})
	if err != nil {
		return nil, err
	}
	n.SetSlotGate(c.gateFor(sh))
	n.Start()
	sh.mu.Lock()
	sh.nodes = append(sh.nodes, n)
	sh.mu.Unlock()
	return n, nil
}

// AddReplica scales a shard's replica count up by one. The new node
// restores from S3 + the log without touching its peers (§5.2, §4.2.1).
func (c *Cluster) AddReplica(shardID string) (*core.Node, error) {
	sh, ok := c.ShardByID(shardID)
	if !ok {
		return nil, fmt.Errorf("cluster: no shard %q", shardID)
	}
	return c.addNode(sh)
}

// ReplaceNode terminates nodeID and provisions a fresh node in the same
// shard (the monitoring service's recovery action, §4.2, and the unit of
// N+1 rolling upgrades, §5.1).
func (c *Cluster) ReplaceNode(nodeID string) (*core.Node, error) {
	for _, sh := range c.Shards() {
		sh.mu.Lock()
		for i, n := range sh.nodes {
			if n.ID() == nodeID {
				n.Stop()
				sh.nodes = append(sh.nodes[:i], sh.nodes[i+1:]...)
				sh.mu.Unlock()
				return c.addNode(sh)
			}
		}
		sh.mu.Unlock()
	}
	return nil, fmt.Errorf("cluster: no node %q", nodeID)
}

// Shards returns the current shard list.
func (c *Cluster) Shards() []*Shard {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Shard(nil), c.shards...)
}

// ShardByID looks a shard up by ID.
func (c *Cluster) ShardByID(id string) (*Shard, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, sh := range c.shards {
		if sh.ID == id {
			return sh, true
		}
	}
	return nil, false
}

// SlotOwner returns the shard currently owning slot.
func (c *Cluster) SlotOwner(slot uint16) *Shard {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.slotOwner[slot]
}

// OwnedSlots returns the slots owned by shardID (for CLUSTER SLOTS).
func (c *Cluster) OwnedSlots(shardID string) []uint16 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []uint16
	for s := 0; s < crc16.NumSlots; s++ {
		if c.slotOwner[s] != nil && c.slotOwner[s].ID == shardID {
			out = append(out, uint16(s))
		}
	}
	return out
}

// Clock returns the cluster's clock.
func (c *Cluster) Clock() clock.Clock { return c.cfg.Clock }

// Stop terminates every node. Logs are left in the service (durable).
func (c *Cluster) Stop() {
	for _, sh := range c.Shards() {
		for _, n := range sh.Nodes() {
			n.Stop()
		}
	}
}

// gateFor builds the slot admission check for nodes of sh: MOVED for
// slots owned elsewhere, CROSSSLOT for multi-slot commands, TRYAGAIN for
// writes to a slot whose ownership transfer is in flight.
func (c *Cluster) gateFor(sh *Shard) func(name string, keys [][]byte, writing bool) (resp.Value, bool) {
	return func(name string, keys [][]byte, writing bool) (resp.Value, bool) {
		if len(keys) == 0 {
			return resp.Value{}, false
		}
		slot := crc16.Slot(keys[0])
		for _, k := range keys[1:] {
			if crc16.Slot(k) != slot {
				return resp.Err("CROSSSLOT Keys in request don't hash to the same slot"), true
			}
		}
		c.mu.RLock()
		owner := c.slotOwner[slot]
		blocked := c.blockedSlots[slot]
		c.mu.RUnlock()
		if owner == nil {
			return resp.Errf("CLUSTERDOWN Hash slot %d not served", slot), true
		}
		if owner.ID != sh.ID {
			endpoint := owner.ID
			if p, ok := owner.Primary(); ok {
				endpoint = p.ID()
			}
			return resp.Errf("MOVED %d %s", slot, endpoint), true
		}
		if writing && blocked {
			return resp.Errf("TRYAGAIN Slot %d ownership transfer in progress", slot), true
		}
		return resp.Value{}, false
	}
}
