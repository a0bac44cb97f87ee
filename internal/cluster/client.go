package cluster

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"memorydb/internal/core"
	"memorydb/internal/crc16"
	"memorydb/internal/engine"
	"memorydb/internal/resp"
)

// Client routes commands to the owning shard, exactly as a cluster-aware
// Redis client does: it computes the key slot locally and follows MOVED
// redirects when the mapping changes (paper §2.1). A readonly client
// additionally follows REDIRECT bounces: a replica that cannot prove
// freshness degrades the read, and the client retries it on the primary
// instead of accepting stale data.
type Client struct {
	c *Cluster
	// readonly routes reads to replicas when true (the READONLY opt-in).
	readonly bool
	// opts is the read-consistency ladder replica reads run under
	// (linearizable by default; bounded-stale/eventual by opt-in).
	opts core.ReadOpts
}

// Client returns a routing client for the cluster.
func (c *Cluster) Client() *Client { return &Client{c: c} }

// ReadOnlyClient returns a client that opts into replica reads at the
// default (linearizable) consistency: replica reads are served only
// with a freshness proof and otherwise retried on the primary.
func (c *Cluster) ReadOnlyClient() *Client { return &Client{c: c, readonly: true} }

// ReadClient returns a replica-reading client with an explicit
// consistency level (bounded-staleness or eventual opt-ins).
func (c *Cluster) ReadClient(opts core.ReadOpts) *Client {
	return &Client{c: c, readonly: true, opts: opts}
}

// Do executes one command, following up to 3 MOVED redirects.
func (cl *Client) Do(ctx context.Context, args ...string) (resp.Value, error) {
	argv := make([][]byte, len(args))
	for i, a := range args {
		argv[i] = []byte(a)
	}
	return cl.DoArgv(ctx, argv)
}

// DoArgv executes one command given raw argv.
func (cl *Client) DoArgv(ctx context.Context, argv [][]byte) (resp.Value, error) {
	v, _, err := cl.DoArgvOutcome(ctx, argv)
	return v, err
}

// DoArgvOutcome executes one command and additionally reports which
// rung of the read-consistency ladder served it (ReadOutcomePrimary for
// anything that executed on a primary — including REDIRECT retries).
// Linearizability harnesses use the outcome to decide which checker a
// read participates in.
func (cl *Client) DoArgvOutcome(ctx context.Context, argv [][]byte) (resp.Value, core.ReadOutcome, error) {
	if cl.c.clusterWide(argv) {
		return cl.everyShard(ctx, argv)
	}
	sh, err := cl.c.route(argv)
	if err != nil {
		return resp.Value{}, core.ReadOutcomePrimary, err
	}
	return cl.doOn(ctx, sh, argv)
}

// doOn executes one command on sh, following up to 3 MOVED and REDIRECT
// answers.
func (cl *Client) doOn(ctx context.Context, sh *Shard, argv [][]byte) (resp.Value, core.ReadOutcome, error) {
	onPrimary := false
	for attempt := 0; ; attempt++ {
		node, err := cl.pick(sh, argv, onPrimary)
		if err != nil {
			return resp.Value{}, core.ReadOutcomePrimary, err
		}
		var v resp.Value
		outcome := core.ReadOutcomePrimary
		if cl.readonly {
			v, outcome, err = node.DoRead(ctx, argv, cl.opts)
		} else {
			v, err = node.Do(ctx, argv)
		}
		if err != nil {
			return resp.Value{}, outcome, err
		}
		if v.IsError() && attempt < 3 {
			if strings.HasPrefix(v.Text(), "MOVED ") {
				// Refresh the route from the redirect and retry.
				if sh2, ok := cl.shardFromMoved(v.Text()); ok {
					sh = sh2
					continue
				}
			}
			if strings.HasPrefix(v.Text(), "REDIRECT") {
				// The replica could not prove freshness: retry on the
				// primary, which serves the read linearizably.
				onPrimary = true
				continue
			}
		}
		return v, outcome, nil
	}
}

// clusterWide reports whether argv answers for the whole keyspace of a
// cluster of more than one shard, so no one shard's reply is the
// cluster's: the table's keyspace reads and the flushes.
func (c *Cluster) clusterWide(argv [][]byte) bool {
	c.mu.RLock()
	shards := len(c.shards)
	c.mu.RUnlock()
	if shards < 2 || len(argv) == 0 {
		return false
	}
	cmd := engine.Lookup(argv[0])
	return cmd != nil && (cmd.Flags&engine.FlagKeyspace != 0 || cmd.Name == "FLUSHALL" || cmd.Name == "FLUSHDB")
}

// everyShard runs a clusterWide command on every shard in turn and merges
// the replies: DBSIZE sums, KEYS concatenates (sorted, as a node sorts its
// own) and a flush answers OK once every primary flushed. An error from
// any shard is the answer. SCAN and RANDOMKEY, whose one reply would be
// one shard's, answer an error.
func (cl *Client) everyShard(ctx context.Context, argv [][]byte) (resp.Value, core.ReadOutcome, error) {
	name := engine.Lookup(argv[0]).Name
	if name == "SCAN" || name == "RANDOMKEY" {
		return resp.Err("ERR " + name + " is not supported on a cluster of more than one shard"), core.ReadOutcomePrimary, nil
	}
	var sum int64
	var keys []resp.Value
	outcome := core.ReadOutcomePrimary // a replica's rung, if any served
	for _, sh := range cl.c.Shards() {
		v, o, err := cl.doOn(ctx, sh, argv)
		if err != nil || v.IsError() {
			return v, o, err
		}
		if o != core.ReadOutcomePrimary {
			outcome = o
		}
		sum += v.Int
		keys = append(keys, v.Array...)
	}
	switch name {
	case "DBSIZE":
		return resp.Int64(sum), outcome, nil
	case "KEYS":
		slices.SortFunc(keys, func(a, b resp.Value) int { return bytes.Compare(a.Str, b.Str) })
		return resp.ArrayV(keys...), outcome, nil
	}
	return resp.OK, outcome, nil
}

// MultiExec runs an atomic transaction (MULTI/EXEC) against the shard
// owning the commands' keys. All keys must hash to one slot: a batch
// whose keys do not, or that holds a clusterWide command, answers
// CROSSSLOT and applies nothing.
func (cl *Client) MultiExec(ctx context.Context, batch [][][]byte) (resp.Value, error) {
	if len(batch) == 0 {
		return resp.ArrayV(), nil
	}
	first, ok := batchRoute(batch)
	if !ok || slices.ContainsFunc(batch, cl.c.clusterWide) {
		return errCrossSlot, nil
	}
	sh, err := cl.c.route(first)
	if err != nil {
		return resp.Value{}, err
	}
	if cl.readonly {
		// READONLY pipeline: an all-read batch may be served by a
		// replica under the same freshness ladder as single reads
		// (write batches fall through to the primary inside
		// DoBatchRead). A REDIRECT bounce retries on the primary.
		node, err := cl.pick(sh, first, false)
		if err != nil {
			return resp.Value{}, err
		}
		v, _, err := node.DoBatchRead(ctx, batch, cl.opts)
		if err != nil {
			return resp.Value{}, err
		}
		if !core.IsRedirect(v) {
			return v, nil
		}
	}
	p, err := sh.WaitForPrimary(cl.c.Clock(), waitPrimaryTimeout)
	if err != nil {
		return resp.Value{}, err
	}
	return p.DoBatch(ctx, batch)
}

const waitPrimaryTimeout = 5 * time.Second

// batchRoute returns the command a MULTI/EXEC batch routes by: its first
// with keys, or its first if none has any. ok is false when the batch's
// keys span more than one slot.
func batchRoute(batch [][][]byte) (first [][]byte, ok bool) {
	first, slot := batch[0], -1
	for _, argv := range batch {
		for _, k := range keysOf(argv) {
			switch s := int(crc16.Slot(k)); {
			case slot < 0:
				first, slot = argv, s
			case s != slot:
				return nil, false
			}
		}
	}
	return first, true
}

// route picks the shard owning the command's first key; keyless commands
// go to the first shard.
func (c *Cluster) route(argv [][]byte) (*Shard, error) {
	if len(argv) == 0 {
		return nil, fmt.Errorf("cluster: empty command")
	}
	if keys := keysOf(argv); len(keys) > 0 {
		slot := crc16.Slot(keys[0])
		if sh := c.SlotOwner(slot); sh != nil {
			return sh, nil
		}
		return nil, fmt.Errorf("cluster: slot %d not served", slot)
	}
	shards := c.Shards()
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	return shards[0], nil
}

// keysOf returns argv's keys: none for an empty, keyless or unknown
// command.
func keysOf(argv [][]byte) [][]byte {
	if len(argv) > 0 {
		if cmd := engine.Lookup(argv[0]); cmd != nil {
			return cmd.Keys(argv)
		}
	}
	return nil
}

// PrimaryFor returns the live primary of the shard Client routes argv
// to, if it has one. A clusterWide command has no one shard.
func (c *Cluster) PrimaryFor(argv [][]byte) (*core.Node, bool) {
	if sh, err := c.route(argv); err == nil && !c.clusterWide(argv) {
		return sh.Primary()
	}
	return nil, false
}

// pick selects the node to talk to within the shard. forcePrimary skips
// replica spreading after a REDIRECT bounce.
func (cl *Client) pick(sh *Shard, argv [][]byte, forcePrimary bool) (*core.Node, error) {
	if cl.readonly && !forcePrimary {
		if cmd := engine.Lookup(argv[0]); cmd != nil && !cmd.Writes() {
			if reps := sh.Replicas(); len(reps) > 0 {
				// Cheap spread: pick by first key byte so a single hot
				// client still fans out.
				idx := 0
				if len(argv) > 1 && len(argv[1]) > 0 {
					idx = int(argv[1][0]) % len(reps)
				}
				return reps[idx], nil
			}
		}
	}
	return sh.WaitForPrimary(cl.c.Clock(), waitPrimaryTimeout)
}

func (cl *Client) shardFromMoved(msg string) (*Shard, bool) {
	// "MOVED <slot> <endpoint>"; endpoint is a node or shard ID.
	parts := strings.Fields(msg)
	if len(parts) != 3 {
		return nil, false
	}
	for _, sh := range cl.c.Shards() {
		if sh.ID == parts[2] {
			return sh, true
		}
		for _, n := range sh.Nodes() {
			if n.ID() == parts[2] {
				return sh, true
			}
		}
	}
	return nil, false
}
