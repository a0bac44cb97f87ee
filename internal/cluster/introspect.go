package cluster

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"memorydb/internal/crc16"
	"memorydb/internal/resp"
)

// ClusterCommand serves the CLUSTER introspection subcommands clients use
// to discover the slot-to-shard mapping (§2.1): SLOTS, SHARDS, KEYSLOT,
// COUNTKEYSINSLOT, INFO. The server front-end routes "CLUSTER ..." here.
func (c *Cluster) ClusterCommand(ctx context.Context, argv [][]byte) resp.Value {
	if len(argv) < 2 {
		return resp.Err("ERR wrong number of arguments for 'cluster' command")
	}
	switch strings.ToUpper(string(argv[1])) {
	case "SLOTS":
		return c.clusterSlots()
	case "SHARDS":
		return c.clusterShards()
	case "KEYSLOT":
		if len(argv) != 3 {
			return resp.Err("ERR wrong number of arguments for 'cluster|keyslot' command")
		}
		return resp.Int64(int64(crc16.Slot(string(argv[2]))))
	case "COUNTKEYSINSLOT":
		if len(argv) != 3 {
			return resp.Err("ERR wrong number of arguments for 'cluster|countkeysinslot' command")
		}
		n, err := strconv.ParseUint(string(argv[2]), 10, 16)
		if err != nil {
			return resp.Err("ERR Invalid slot")
		}
		return c.countKeysInSlot(ctx, uint16(n))
	case "INFO":
		return resp.BulkStr(c.clusterInfoText())
	case "MYID", "NODES":
		// Minimal stubs: enough for clients that probe these.
		return resp.BulkStr(c.cfg.Name)
	}
	return resp.Errf("ERR Unknown CLUSTER subcommand or wrong number of arguments for '%s'", string(argv[1]))
}

// clusterSlots renders the CLUSTER SLOTS reply: one row per contiguous
// slot range: [start, end, [primaryID], [replicaID]...].
func (c *Cluster) clusterSlots() resp.Value {
	c.mu.RLock()
	owners := c.slotOwner
	c.mu.RUnlock()
	var rows []resp.Value
	start := 0
	for s := 1; s <= crc16.NumSlots; s++ {
		if s < crc16.NumSlots && owners[s] == owners[start] {
			continue
		}
		if sh := owners[start]; sh != nil {
			row := []resp.Value{resp.Int64(int64(start)), resp.Int64(int64(s - 1))}
			if p, ok := sh.Primary(); ok {
				row = append(row, resp.ArrayV(resp.BulkStr(p.ID()), resp.Int64(0)))
			} else {
				row = append(row, resp.ArrayV(resp.BulkStr(sh.ID), resp.Int64(0)))
			}
			for _, r := range sh.Replicas() {
				row = append(row, resp.ArrayV(resp.BulkStr(r.ID()), resp.Int64(0)))
			}
			rows = append(rows, resp.ArrayV(row...))
		}
		start = s
	}
	return resp.ArrayV(rows...)
}

// clusterShards renders a CLUSTER SHARDS-shaped reply: per shard, its
// slot ranges and node list with roles.
func (c *Cluster) clusterShards() resp.Value {
	var rows []resp.Value
	for _, sh := range c.Shards() {
		slots := c.OwnedSlots(sh.ID)
		var ranges []resp.Value
		for i := 0; i < len(slots); {
			j := i
			for j+1 < len(slots) && slots[j+1] == slots[j]+1 {
				j++
			}
			ranges = append(ranges, resp.Int64(int64(slots[i])), resp.Int64(int64(slots[j])))
			i = j + 1
		}
		var nodes []resp.Value
		for _, n := range sh.Nodes() {
			nodes = append(nodes, resp.ArrayV(
				resp.BulkStr("id"), resp.BulkStr(n.ID()),
				resp.BulkStr("role"), resp.BulkStr(n.Role().String()),
				resp.BulkStr("availability-zone"), resp.BulkStr(n.AZ()),
			))
		}
		rows = append(rows, resp.ArrayV(
			resp.BulkStr("slots"), resp.ArrayV(ranges...),
			resp.BulkStr("nodes"), resp.ArrayV(nodes...),
		))
	}
	return resp.ArrayV(rows...)
}

func (c *Cluster) countKeysInSlot(ctx context.Context, slot uint16) resp.Value {
	sh := c.SlotOwner(slot)
	if sh == nil {
		return resp.Int64(0)
	}
	p, ok := sh.Primary()
	if !ok {
		return resp.Err("CLUSTERDOWN no primary for slot's shard")
	}
	n, err := p.SlotKeyCount(ctx, slot)
	if err != nil {
		return resp.Errf("ERR %v", err)
	}
	return resp.Int64(int64(n))
}

func (c *Cluster) clusterInfoText() string {
	shards := c.Shards()
	assigned := 0
	ok := true
	for s := 0; s < crc16.NumSlots; s++ {
		if c.SlotOwner(uint16(s)) != nil {
			assigned++
		} else {
			ok = false
		}
	}
	state := "ok"
	if !ok {
		state = "fail"
	}
	nodes := 0
	for _, sh := range shards {
		nodes += len(sh.Nodes())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cluster_enabled:1\r\n")
	fmt.Fprintf(&b, "cluster_state:%s\r\n", state)
	fmt.Fprintf(&b, "cluster_slots_assigned:%d\r\n", assigned)
	fmt.Fprintf(&b, "cluster_known_nodes:%d\r\n", nodes)
	fmt.Fprintf(&b, "cluster_size:%d\r\n", len(shards))
	// Workloop pressure, aggregated across every node: total and max
	// queued tasks, so a hot node shows up from one INFO call without
	// scraping each node.
	depthTotal, depthMax := 0, 0
	for _, sh := range shards {
		for _, n := range sh.Nodes() {
			d := n.QueueDepth()
			depthTotal += d
			depthMax = max(depthMax, d)
		}
	}
	fmt.Fprintf(&b, "cluster_exec_queue_depth_total:%d\r\n", depthTotal)
	fmt.Fprintf(&b, "cluster_exec_queue_depth_max:%d\r\n", depthMax)
	// Per-AZ transaction-log health: served/dropped ack counts plus the
	// ack latency distribution, so a flaky or slow zone is identifiable
	// from one INFO call (drops climb, or its p99 diverges from its
	// peers').
	if svc := c.cfg.LogService; svc != nil {
		for i, az := range svc.AZs() {
			served, dropped := az.Acks()
			q := az.AckLatency().Quantiles()
			fmt.Fprintf(&b, "az%d_name:%s\r\n", i, az.Name())
			fmt.Fprintf(&b, "az%d_acks_served:%d\r\n", i, served)
			fmt.Fprintf(&b, "az%d_acks_dropped:%d\r\n", i, dropped)
			fmt.Fprintf(&b, "az%d_ack_p50_usec:%d\r\n", i, int64(q.P50/time.Microsecond))
			fmt.Fprintf(&b, "az%d_ack_p99_usec:%d\r\n", i, int64(q.P99/time.Microsecond))
			fmt.Fprintf(&b, "az%d_ack_max_usec:%d\r\n", i, int64(q.Max/time.Microsecond))
			held, missing, resynced := az.Segments()
			fmt.Fprintf(&b, "az%d_segments_held:%d\r\n", i, held)
			fmt.Fprintf(&b, "az%d_segments_missing:%d\r\n", i, missing)
			fmt.Fprintf(&b, "az%d_segments_resynced:%d\r\n", i, resynced)
		}
	}
	return b.String()
}
