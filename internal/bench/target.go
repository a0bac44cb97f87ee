package bench

import (
	"context"
	"fmt"
	"time"

	"memorydb/internal/baseline"
	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/election"
	"memorydb/internal/netsim"
	"memorydb/internal/txlog"
)

// Target is a system under test: a real MemoryDB or Redis-mode node with
// the instance-type capacity model in front of the engine.
type Target struct {
	Sys System
	IT  InstanceType

	node  *core.Node
	bnode *baseline.Node
	log   *txlog.Log

	// pacer models the engine as one single-threaded service lane.
	pacer     Pacer
	readCost  time.Duration
	writeCost time.Duration

	closers []func()
}

// NewTarget builds a target for the given system and instance type.
func NewTarget(sys System, it InstanceType) (*Target, error) {
	t := &Target{Sys: sys, IT: it}
	t.readCost = CostFor(Capacity(sys, OpRead, it))
	t.writeCost = CostFor(Capacity(sys, OpWrite, it))
	switch sys {
	case SystemMemoryDB:
		svc := txlog.NewService(txlog.Config{
			Clock:         clock.NewReal(),
			CommitLatency: netsim.DefaultCommitLatency(),
		})
		log, err := svc.CreateLog("bench-shard")
		if err != nil {
			return nil, err
		}
		n, err := core.NewNode(core.Config{
			NodeID:  "bench-primary",
			ShardID: "bench-shard",
			Log:     log,
			Lease:   500 * time.Millisecond, Backoff: 650 * time.Millisecond,
			RenewEvery: 100 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		n.Start()
		t.node = n
		t.log = log
		t.closers = append(t.closers, n.Stop)
		deadline := time.Now().Add(5 * time.Second)
		for n.Role() != election.RolePrimary {
			if time.Now().After(deadline) {
				n.Stop()
				return nil, fmt.Errorf("bench: node never became primary")
			}
			time.Sleep(time.Millisecond)
		}
	case SystemRedis:
		n := baseline.NewPrimary(baseline.Config{NodeID: "bench-redis"})
		t.bnode = n
		t.closers = append(t.closers, n.Stop)
	}
	return t, nil
}

// LogStats returns the transaction-log append counters (group-commit
// observability); ok is false for targets without a log (Redis mode).
func (t *Target) LogStats() (txlog.Stats, bool) {
	if t.log == nil {
		return txlog.Stats{}, false
	}
	return t.log.Stats(), true
}

// Close tears the target down.
func (t *Target) Close() {
	for _, c := range t.closers {
		c()
	}
}

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
		if t.node != nil {
			if _, err := t.node.DoBatch(ctx, cmds); err != nil {
				return err
			}
		} else {
			for _, argv := range cmds {
				if _, err := t.bnode.Do(ctx, argv); err != nil {
					return err
				}
			}
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
	var err error
	if t.node != nil {
		_, err = t.node.Do(ctx, argv)
	} else {
		_, err = t.bnode.Do(ctx, argv)
	}
	return time.Since(start), err
}
