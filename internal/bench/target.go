package bench

import (
	"context"
	"fmt"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/election"
	"memorydb/internal/netsim"
	"memorydb/internal/txlog"
)

// Target is a system under test: a real node with the instance-type
// capacity model in front of the engine. Both systems are the same node
// on the same log; Redis answers a write once it executes
// (core.Config.AckOnExecute), MemoryDB once its entry commits.
type Target struct {
	Sys System
	IT  InstanceType

	node *core.Node
	log  *txlog.Log

	// pacer models the engine as one single-threaded service lane.
	pacer     Pacer
	readCost  time.Duration
	writeCost time.Duration
}

// NewTarget builds a target for the given system and instance type.
func NewTarget(sys System, it InstanceType) (*Target, error) {
	t := &Target{Sys: sys, IT: it}
	t.readCost = CostFor(Capacity(sys, OpRead, it))
	t.writeCost = CostFor(Capacity(sys, OpWrite, it))
	svc := txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: netsim.DefaultCommitLatency(),
	})
	log, err := svc.CreateLog("bench-shard")
	if err != nil {
		return nil, err
	}
	n, err := core.NewNode(core.Config{
		NodeID:  "bench-" + sys.String(),
		ShardID: "bench-shard",
		Log:     log,
		Lease:   500 * time.Millisecond, Backoff: 650 * time.Millisecond,
		RenewEvery:   100 * time.Millisecond,
		AckOnExecute: sys == SystemRedis,
	})
	if err != nil {
		return nil, err
	}
	n.Start()
	t.node, t.log = n, log
	deadline := time.After(5 * time.Second)
	for changed := n.Changed(); n.Role() != election.RolePrimary; changed = n.Changed() {
		select {
		case <-changed:
		case <-deadline:
			n.Stop()
			return nil, fmt.Errorf("bench: node never became primary")
		}
	}
	return t, nil
}

// Close tears the target down.
func (t *Target) Close() { t.node.Stop() }

// Prefill loads n keys of valueBytes each so reads hit (§6.1.1 pre-fills
// 1M keys; scale with the run length you can afford).
func (t *Target) Prefill(ctx context.Context, n, valueBytes int) error {
	val := make([]byte, valueBytes)
	for i := range val {
		val[i] = 'x'
	}
	const batch = 500
	for base := 0; base < n; base += batch {
		var cmds [][][]byte
		for i := base; i < base+batch && i < n; i++ {
			cmds = append(cmds, [][]byte{[]byte("SET"), benchKey(i), val})
		}
		if _, err := t.node.DoBatch(ctx, cmds); err != nil {
			return err
		}
	}
	return nil
}

func benchKey(i int) []byte {
	return []byte(fmt.Sprintf("key:%08d", i))
}

// Op issues one operation: the instance model charges engine time, then
// the real node executes it (including, for MemoryDB writes, the real
// transaction-log commit wait). It returns the client-perceived latency.
func (t *Target) Op(ctx context.Context, kind OpKind, keyIdx int, val []byte) (time.Duration, error) {
	start := time.Now()
	cost := t.readCost
	key := benchKey(keyIdx)
	var argv [][]byte
	if kind == OpWrite {
		cost = t.writeCost
		argv = [][]byte{[]byte("SET"), key, val}
	} else {
		argv = [][]byte{[]byte("GET"), key}
	}
	// Sub-200µs waits are absorbed rather than slept: Go timer overshoot
	// at that granularity would dominate the measurement. The pacer's
	// virtual queue still advances by the full cost, so capacity is
	// enforced — short waits simply accumulate until they are worth a
	// real sleep.
	if wait := t.pacer.Reserve(start, cost); wait > 200*time.Microsecond {
		time.Sleep(wait)
	}
	_, err := t.node.Do(ctx, argv)
	return time.Since(start), err
}
