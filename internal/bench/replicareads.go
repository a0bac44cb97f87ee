package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/election"
	"memorydb/internal/txlog"
)

// ReplicaReadSweep is the replica counts of the replica-read throughput
// figure: -1 is the write-only baseline (no read load at all, pinning
// the primary's undisturbed write throughput), 0 puts every read on the
// primary, and 1..4 spread reads across verified replicas.
var ReplicaReadSweep = []int{-1, 0, 1, 2, 4}

// replicaReadIT is the modeled host of the replica-read figure.
var replicaReadIT = InstanceType{"r7g.large", 2}

// replicaReadNodeCapacity pins each node's read lane (ops/sec) for this
// figure. It is deliberately far below what one Go node actually
// sustains through the verified read path (~45K op/s even on one vCPU),
// so the per-node capacity model — not the Go scheduler — is the
// binding resource: the whole R=4 fleet's modeled load fits inside a
// single core's real throughput, and the figure measures *scaling* with
// the replica count on any runner, not the runner's parallelism.
// Absolute numbers are modeled (like CapacityScale); the ratios are
// what the figure reports.
var replicaReadNodeCapacity = 5_000.0

// readFleet is one primary plus R verified-read replicas on a shared
// multi-AZ transaction log, each node fronted by its own engine-capacity
// lane.
type readFleet struct {
	primary     *core.Node
	primaryLane *Pacer
	replicas    []*core.Node
	lanes       []*Pacer
	readCost    time.Duration
	writeCost   time.Duration
	closers     []func()
}

func (f *readFleet) Close() {
	for _, c := range f.closers {
		c()
	}
}

func newReadFleet(replicas int) (*readFleet, error) {
	svc := txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: DefaultCommitLatency(),
	})
	log, err := svc.CreateLog("bench-reads")
	if err != nil {
		return nil, err
	}
	f := &readFleet{
		primaryLane: &Pacer{},
		readCost:    CostFor(replicaReadNodeCapacity),
		writeCost:   CostFor(Capacity(SystemMemoryDB, OpWrite, replicaReadIT)),
	}
	mk := func(id string) (*core.Node, error) {
		n, err := core.NewNode(core.Config{
			NodeID: id, ShardID: "bench-reads", Log: log,
			Lease: 500 * time.Millisecond, Backoff: 650 * time.Millisecond,
			RenewEvery: 100 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		n.Start()
		f.closers = append(f.closers, n.Stop)
		return n, nil
	}
	if f.primary, err = mk("bench-primary"); err != nil {
		f.Close()
		return nil, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.primary.Role() != election.RolePrimary {
		if time.Now().After(deadline) {
			f.Close()
			return nil, fmt.Errorf("bench: node never became primary")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < replicas; i++ {
		n, err := mk(fmt.Sprintf("bench-replica-%d", i))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.replicas = append(f.replicas, n)
		f.lanes = append(f.lanes, &Pacer{})
	}
	return f, nil
}

// prefill seeds n keys and, when replicas exist, waits until every one
// of them has proved freshness once, so the measurement window starts
// past the initial catch-up transient.
func (f *readFleet) prefill(ctx context.Context, n int) error {
	val := make([]byte, 100)
	for i := range val {
		val[i] = 'x'
	}
	const batch = 500
	for base := 0; base < n; base += batch {
		var cmds [][][]byte
		for i := base; i < base+batch && i < n; i++ {
			cmds = append(cmds, [][]byte{[]byte("SET"), benchKey(i), val})
		}
		if _, err := f.primary.DoBatch(ctx, cmds); err != nil {
			return err
		}
	}
	probe := [][]byte{[]byte("GET"), benchKey(0)}
	for _, r := range f.replicas {
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, outcome, err := r.DoRead(ctx, probe, core.ReadOpts{})
			if err != nil {
				return err
			}
			if outcome == core.ReadOutcomeLinearizable {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("bench: replica %s never proved freshness", r.ID())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// reserve charges the lane and sleeps when the wait is worth a real
// sleep (see Target.Op for why sub-200µs waits are absorbed).
func reserve(lane *Pacer, cost time.Duration) {
	if wait := lane.Reserve(time.Now(), cost); wait > 200*time.Microsecond {
		time.Sleep(wait)
	}
}

// FigureReplicaReads measures the consistent replica read path: total
// linearizable read throughput and primary write throughput as the
// replica count grows. With zero replicas every read is served by the
// primary; with R replicas, readers spread across them and each read
// carries the freshness proof (capture, park, execute) — a read that
// cannot prove freshness REDIRECTs and is retried on the primary, so
// the reported read throughput never counts a stale serve. The paper's
// claim (§5, §6): replicas add read capacity in near-linear steps while
// the primary's write path is left alone. The write-only arm pins the
// undisturbed write baseline; replicas=0 shows what co-locating the
// read load on the primary costs it.
func FigureReplicaReads(ctx context.Context, opts Options, out io.Writer) ([]Row, error) {
	readers := opts.Clients
	if readers < 8 {
		readers = 8
	}
	writers := opts.Clients / 8
	if writers < 4 {
		writers = 4
	}
	keys := opts.Prefill
	if keys < 1 {
		keys = 1
	}
	var rows []Row
	for _, nreplicas := range ReplicaReadSweep {
		writeOnly := nreplicas < 0
		f, err := newReadFleet(max(nreplicas, 0))
		if err != nil {
			return nil, err
		}
		if err := f.prefill(ctx, keys); err != nil {
			f.Close()
			return nil, err
		}

		var readOps, writeOps, redirects atomic.Int64
		val := make([]byte, 100)
		stop := time.Now().Add(opts.Duration)
		var wg sync.WaitGroup
		for c := 0; c < writers; c++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for time.Now().Before(stop) {
					reserve(f.primaryLane, f.writeCost)
					argv := [][]byte{[]byte("SET"), benchKey(rng.Intn(keys)), val}
					if v, err := f.primary.Do(ctx, argv); err == nil && !v.IsError() {
						writeOps.Add(1)
					}
				}
			}(int64(c) + 1)
		}
		nreaders := readers
		if writeOnly {
			nreaders = 0
		}
		for c := 0; c < nreaders; c++ {
			wg.Add(1)
			go func(id int, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for time.Now().Before(stop) {
					argv := [][]byte{[]byte("GET"), benchKey(rng.Intn(keys))}
					if len(f.replicas) == 0 {
						reserve(f.primaryLane, f.readCost)
						if _, err := f.primary.Do(ctx, argv); err == nil {
							readOps.Add(1)
						}
						continue
					}
					i := id % len(f.replicas)
					reserve(f.lanes[i], f.readCost)
					_, outcome, err := f.replicas[i].DoRead(ctx, argv, core.ReadOpts{})
					if err != nil {
						continue
					}
					switch outcome {
					case core.ReadOutcomeLinearizable:
						readOps.Add(1)
					case core.ReadOutcomeRedirected:
						// Explicit degradation: the read is retried on
						// the primary, paying the primary's lane —
						// exactly what a cluster client does on
						// REDIRECT.
						redirects.Add(1)
						reserve(f.primaryLane, f.readCost)
						if _, err := f.primary.Do(ctx, argv); err == nil {
							readOps.Add(1)
						}
					}
				}
			}(c, int64(readers+c)+1)
		}
		wg.Wait()
		f.Close()

		secs := opts.Duration.Seconds()
		label := fmt.Sprintf("replicas=%d", nreplicas)
		if writeOnly {
			label = "write-only"
		}
		row := Row{
			Label: label,
			Values: map[string]float64{
				"read_ops":  float64(readOps.Load()) / secs,
				"write_ops": float64(writeOps.Load()) / secs,
				"redirects": float64(redirects.Load()),
			},
			Order: []string{"read_ops", "write_ops", "redirects"},
		}
		rows = append(rows, row)
		if out != nil {
			fmt.Fprintln(out, row.Format())
		}
	}
	return rows, nil
}
