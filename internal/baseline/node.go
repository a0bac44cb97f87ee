// Package baseline implements an OSS-Redis-mode deployment over the same
// execution engine: asynchronous primary→replica replication, WAIT,
// an append-only file with configurable fsync, and the ranked (unsafe)
// failover of Redis cluster — the baseline MemoryDB is evaluated against
// throughout the paper, and the system whose data-loss modes (§2.2)
// motivate MemoryDB's design.
package baseline

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/engine"
	"memorydb/internal/netsim"
	"memorydb/internal/resp"
)

// Config parameterizes a baseline node.
type Config struct {
	NodeID string
	Clock  clock.Clock
	// ReplDelay models the asynchronous replication lag to this node
	// (applies to a replica's apply path). Defaults to zero.
	ReplDelay netsim.LatencyModel
	// AOF, when set, persists the effect stream with the configured
	// fsync policy (§2.2.1).
	AOF *AOF
}

// ErrStopped is returned once the node has been stopped.
var ErrStopped = errors.New("baseline: node stopped")

// Node is one OSS-mode node.
type Node struct {
	cfg Config
	eng *engine.Engine

	mu        sync.Mutex
	isPrimary bool
	replicas  []*Node
	stopped   bool

	tasks  chan *task
	stopCh chan struct{}
	wg     sync.WaitGroup

	// masterOffset is the primary's replication offset (bytes of effects
	// produced). ackedOffset is, on a replica, how far it has applied.
	masterOffset atomic.Int64
	ackedOffset  atomic.Int64

	replIn chan replItem
}

type replItem struct {
	offset  int64
	effects []byte
}

type task struct {
	argv      [][]byte
	batch     [][][]byte // a MULTI/EXEC group, run as one command when set
	reply     chan resp.Value
	snapshotW func() // closure executed inside the workloop (BGSave, applies)
}

// NewPrimary starts a primary node.
func NewPrimary(cfg Config) *Node {
	n := newNode(cfg)
	n.isPrimary = true
	return n
}

func newNode(cfg Config) *Node {
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	if cfg.ReplDelay == nil {
		cfg.ReplDelay = netsim.Zero{}
	}
	n := &Node{
		cfg:    cfg,
		eng:    engine.New(cfg.Clock),
		tasks:  make(chan *task, 1024),
		stopCh: make(chan struct{}),
		replIn: make(chan replItem, 65536),
	}
	n.wg.Add(1)
	go n.workloop()
	return n
}

// AddReplica attaches a new replica with its own replication lag.
func (n *Node) AddReplica(cfg Config) *Node {
	r := newNode(cfg)
	r.wg.Add(1)
	go r.replApplyLoop()
	n.mu.Lock()
	n.replicas = append(n.replicas, r)
	n.mu.Unlock()
	return r
}

// Stop terminates the node (and not its replicas).
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.mu.Unlock()
	close(n.stopCh)
	n.wg.Wait()
}

// Stopped reports whether the node was stopped.
func (n *Node) Stopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped
}

// ID returns the node ID.
func (n *Node) ID() string { return n.cfg.NodeID }

// IsPrimary reports the node's role.
func (n *Node) IsPrimary() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.isPrimary
}

// MasterOffset returns the primary's produced replication offset.
func (n *Node) MasterOffset() int64 { return n.masterOffset.Load() }

// AckedOffset returns how far this replica has applied.
func (n *Node) AckedOffset() int64 { return n.ackedOffset.Load() }

// Do executes one command. On a primary, mutations are acknowledged
// immediately after local execution — replication is asynchronous, which
// is exactly the window where OSS Redis can lose acknowledged writes on
// failover (§2.2).
func (n *Node) Do(ctx context.Context, argv [][]byte) (resp.Value, error) {
	return n.submit(ctx, &task{argv: argv, reply: make(chan resp.Value, 1)})
}

// DoBatch executes a MULTI/EXEC group as one workloop task, so no other
// client's command runs between its commands, and its effects reach the
// AOF and the replicas as one payload. The reply is EXEC's array.
func (n *Node) DoBatch(ctx context.Context, cmds [][][]byte) (resp.Value, error) {
	return n.submit(ctx, &task{batch: cmds, reply: make(chan resp.Value, 1)})
}

// submit queues t on the workloop and waits for its reply.
func (n *Node) submit(ctx context.Context, t *task) (resp.Value, error) {
	select {
	case n.tasks <- t:
	case <-n.stopCh:
		return resp.Value{}, ErrStopped
	case <-ctx.Done():
		return resp.Value{}, ctx.Err()
	}
	select {
	case v := <-t.reply:
		return v, nil
	case <-n.stopCh:
		return resp.Value{}, ErrStopped
	case <-ctx.Done():
		return resp.Value{}, ctx.Err()
	}
}

// Wait implements the WAIT command: block until numReplicas replicas have
// acknowledged the current master offset (§2.2.2). It does not stop other
// clients from observing unacknowledged data.
func (n *Node) Wait(ctx context.Context, numReplicas int) (int, error) {
	target := n.masterOffset.Load()
	for {
		acked := 0
		n.mu.Lock()
		reps := append([]*Node(nil), n.replicas...)
		n.mu.Unlock()
		for _, r := range reps {
			if r.ackedOffset.Load() >= target {
				acked++
			}
		}
		if acked >= numReplicas {
			return acked, nil
		}
		select {
		case <-ctx.Done():
			return acked, ctx.Err()
		case <-n.stopCh:
			return acked, ErrStopped
		default:
			n.cfg.Clock.Sleep(100 * time.Microsecond)
		}
	}
}

func (n *Node) workloop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stopCh:
			return
		case t := <-n.tasks:
			if t.snapshotW != nil {
				t.snapshotW()
				if t.reply != nil {
					t.reply <- resp.OK
				}
				continue
			}
			res := n.exec(t)
			if res.Mutated() && n.IsPrimary() {
				payload := res.Effects
				off := n.masterOffset.Add(int64(len(payload)))
				if n.cfg.AOF != nil {
					n.cfg.AOF.Append(payload)
				}
				n.mu.Lock()
				reps := append([]*Node(nil), n.replicas...)
				n.mu.Unlock()
				for _, r := range reps {
					select {
					case r.replIn <- replItem{offset: off, effects: res.Effects}:
					default:
						// A replica that cannot keep up drops out of the
						// replication stream (it would resync in Redis);
						// for the baseline model it simply lags forever.
					}
				}
			}
			t.reply <- res.Reply
		}
	}
}

// exec runs t's command, or its MULTI/EXEC group, on the engine.
func (n *Node) exec(t *task) engine.Result {
	if t.batch == nil {
		return n.eng.Exec(t.argv)
	}
	cmds := make([]*engine.Command, len(t.batch))
	for i, argv := range t.batch {
		if len(argv) > 0 {
			cmds[i] = engine.Lookup(argv[0])
		}
	}
	return n.eng.ExecBatch(t.batch, cmds)
}

// replApplyLoop applies the asynchronous replication stream on a replica
// after its configured lag.
func (n *Node) replApplyLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stopCh:
			return
		case item := <-n.replIn:
			if d := n.cfg.ReplDelay.Sample(); d > 0 {
				n.cfg.Clock.Sleep(d)
			}
			t := &task{argv: nil, reply: make(chan resp.Value, 1)}
			t.snapshotW = func() {
				_ = n.eng.Apply(item.effects)
				n.ackedOffset.Store(item.offset)
			}
			select {
			case n.tasks <- t:
				select {
				case <-t.reply:
				case <-n.stopCh:
					return
				}
			case <-n.stopCh:
				return
			}
		}
	}
}

// Engine exposes the node's engine (tests, snapshot experiments).
func (n *Node) Engine() *engine.Engine { return n.eng }
