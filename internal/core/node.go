// Package core implements the MemoryDB node: a Redis-compatible execution
// engine whose replication stream is intercepted and redirected into the
// durable multi-AZ transaction log (paper §3). A primary executes
// mutations locally, appends their effects to the log, and withholds
// client replies on the log entries that carry them until the log
// acknowledges durability. Replicas tail the log and apply the same
// effects, giving an eventually consistent copy that is always a prefix of
// the committed history — which is what makes consistent failover
// possible (§4.1.2).
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/election"
	"memorydb/internal/engine"
	"memorydb/internal/faultpoint"
	"memorydb/internal/obs"
	"memorydb/internal/resp"
	"memorydb/internal/retry"
	"memorydb/internal/snapshot"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// Config parameterizes a node.
type Config struct {
	NodeID  string
	ShardID string
	// AZ is the availability zone label (placement/monitoring metadata).
	AZ string
	// Log is this shard's transaction log.
	Log *txlog.Log
	// Clock drives leases, TTLs and timeouts. Defaults to the wall clock.
	Clock clock.Clock
	// EngineVersion tags replication records for upgrade protection
	// (§7.1). Defaults to engine.Version.
	EngineVersion uint32
	// Lease, Backoff, RenewEvery configure leader election (§4.1.3).
	// Backoff must exceed Lease. Defaults: 2s / 2.5s / 500ms.
	Lease, Backoff, RenewEvery time.Duration
	// Snapshots, when set, enables snapshot-based recovery: restores load
	// the latest snapshot from S3 and replay only the log suffix (§4.2.1).
	Snapshots *snapshot.Manager
	// ChecksumEvery makes the primary inject its running log checksum as
	// an EntryChecksum after every N data entries (§7.2.1). Defaults to
	// 64; negative disables injection.
	ChecksumEvery int
	// MaxInflightAppends is the group-commit pipeline depth: the buffer is
	// flushed eagerly while fewer than this many batched data appends are
	// awaiting quorum acknowledgement, and held (accumulating records)
	// once the window is full. Depth 1 is classic group commit — flush
	// only when the log pipeline is idle — which makes every writer under
	// sustained load wait ~2 commit latencies (the in-flight entry, then
	// its own). A deeper window overlaps batches so a write waits only
	// ~1/depth of a commit before its batch is appended. While the window
	// is full the workloop keeps executing queued mutations and buffers
	// their effects, flushed as one entry when an append acknowledges or
	// the buffer reaches 64 records or 256 KiB. Defaults to 8.
	MaxInflightAppends int
	// ReplicaReadTimeout bounds how long a linearizable replica read may
	// park waiting for the replica's applied position to cover the
	// committed tail captured at read arrival. On expiry the read
	// degrades (bounded-stale serve if the client opted in, else a
	// REDIRECT to the primary) instead of hanging on a feed that may
	// never advance. Defaults to 50ms.
	ReplicaReadTimeout time.Duration
	// RetrySeed makes the jitter of transient-failure retries against the
	// log deterministic for fixed-seed chaos runs. Each node salts it so a
	// fleet does not retry in lockstep.
	RetrySeed int64
	// Faults, when set, is the node's fault registry: named sites on the
	// critical write paths consult it and may crash the node exactly there
	// (the node freezes in place as a killed process would), stall, or
	// fail transiently, and its node.partition site cuts THIS node off
	// from the transaction log service — appends and reads fail, other
	// nodes are unaffected (§4.1 failure modes). A node built alone leaves
	// it nil — a nil registry is a no-op costing one pointer check per
	// site.
	Faults *faultpoint.Registry
	// Obs, when set, is a shared observability registry: the node records
	// write-path stage latencies, per-command histograms, slowlog entries
	// and sampled traces into it, and the server front-end / log service /
	// metrics endpoint read the same instance. Nil creates a private
	// registry with obs defaults (instrumentation is always on unless
	// NoObs is set).
	Obs *obs.Metrics
	// NoObs disables latency instrumentation entirely. This is the
	// ablation arm of the overhead-guard benchmark, not a production
	// setting.
	NoObs bool
	// Alarms, when set, is surfaced in INFO's # Slowlog section so
	// operational alarms (snapshot quarantines, primaryless shards) are
	// visible next to the latency outliers they usually explain.
	Alarms *obs.AlarmLog
	// Trace, when set, enables cross-node causal tracing: sampled
	// commands carry a span context from submit through group commit
	// onto the log entry, and this node's stages (plus replica applies
	// of remote entries) are recorded as spans into the shared
	// collector — the one sampler behind both TRACE GET and LATENCY
	// TRACES. Nil disables tracing entirely (zero overhead).
	Trace *trace.Collector
	// Flight, when set, is this node's black-box flight recorder ring.
	// Nil creates a private one — the recorder is always on. The cluster
	// layer passes identity-keyed rings so a restarted node continues
	// its predecessor's timeline.
	Flight *trace.Flight
	// FlightEvents sizes the private flight ring created when Flight is
	// nil. Defaults to the MEMORYDB_FLIGHT_EVENTS environment variable
	// when set, otherwise trace.DefaultFlightEvents.
	FlightEvents int
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	if c.EngineVersion == 0 {
		c.EngineVersion = engine.Version
	}
	if c.Lease == 0 {
		c.Lease = 2 * time.Second
	}
	if c.Backoff == 0 {
		c.Backoff = c.Lease + c.Lease/4
	}
	if c.RenewEvery == 0 {
		c.RenewEvery = c.Lease / 4
	}
	if c.ReplicaReadTimeout == 0 {
		c.ReplicaReadTimeout = 50 * time.Millisecond
	}
	if c.ChecksumEvery == 0 {
		c.ChecksumEvery = 64
	}
	if c.MaxInflightAppends == 0 {
		c.MaxInflightAppends = 8
	}
	if c.MaxInflightAppends < 1 {
		c.MaxInflightAppends = 1
	}
	if c.FlightEvents == 0 {
		if env := os.Getenv("MEMORYDB_FLIGHT_EVENTS"); env != "" {
			if v, err := strconv.Atoi(env); err == nil {
				c.FlightEvents = v
			}
		}
	}
	return c
}

// Errors surfaced by the node API.
var (
	ErrStopped = errors.New("core: node stopped")
)

// Node is one MemoryDB data-plane node (primary or replica of a shard).
type Node struct {
	cfg Config
	clk clock.Clock

	mu      sync.Mutex
	role    election.Role
	epoch   uint64
	lease   *election.Lease
	stalled bool // upgrade protection tripped (§7.1)
	frozen  bool // crashed (Freeze): the workloop parks at its next gate
	// changed is closed, and replaced, at the node's next change of role
	// or epoch, freeze, thaw, upgrade stall or stop (see Changed).
	changed chan struct{}
	// slotGate, when set by the cluster layer, admits or rejects client
	// commands by slot (MOVED / CROSSSLOT / migration write block, §5.2).
	slotGate func(name string, keys [][]byte, writing bool) (resp.Value, bool)

	// The workloop's state (workloop.go), tasks through feedEpoch: the
	// node's one goroutine owns it, so none of it takes a lock. Every
	// command and every piece of node-internal work — replica apply, state
	// installs, renewals, control appends, migration, reply release — runs
	// there.
	tasks chan *task
	eng   *engine.Engine
	// gc is the group-commit buffer: mutations executed while a quorum
	// append is in flight accumulate here until flush.
	gc groupCommit
	// migStream, when non-nil, mirrors effects touching the migrating slot.
	migStream *MigrationStream
	// Sequencer state (sequencer.go): the tail this node has issued
	// appends through, the seq of the newest entry answered for (the
	// durable watermark every append carries), and the running checksum
	// over the data payloads this primary appended, chained from the value
	// at its leadership claim and injected into the log every
	// ChecksumEvery data entries (§7.2.1).
	lastIssued      txlog.EntryID
	durable         uint64
	runningChecksum uint64
	dataSinceSum    int
	// issued is the FIFO of issued appends the node has yet to answer for,
	// in issue order; the workloop waits on its head. entries counts every
	// entry ever issued, so the FIFO holds ordinals entries-len(issued)+1
	// through entries, and the open buffer's entry will be entries+1.
	issued  []*issuedEntry
	entries uint64
	// hazards maps the keys of writes not yet answered for to their
	// entries' ordinals (groupcommit.go).
	hazards hazards
	// applied is the log position the keyspace reflects, moved by the
	// tailer and by the installs of promotion and resync. replay consumes
	// every entry above it: resync seeds it from the restored snapshot's
	// log checksum and the tailer keeps stepping it.
	applied txlog.EntryID
	replay  *txlog.Replayer
	// life is the role state the lifecycle steps drive (roles.go), and
	// roleChanged, set by demote, has the workloop quarantine a primary
	// that stepped down at the end of the turn.
	life        lifecycle
	roleChanged bool
	// degradedSince is the UnixNano timestamp when the node first saw a
	// partial-quorum commit (fewer acks than AZs), 0 while fully
	// replicated. Closed out into Stats.DegradedMillis on the first
	// full-replication commit after the window.
	degradedSince int64
	// The replica read ladder's state (readpath.go, parked.go). parked
	// lists the replica reads waiting for the applied position to cover
	// their capture, in deadline order, and the WaitApplied callers, which
	// have no deadline; it lives across role changes (a promotion's install
	// releases every parked read). readTimer is the one timer for the
	// earliest deadline, nil while disarmed. freshAt is the replica-local
	// instant the tailer last proved it had drained the log, and feedEpoch
	// the newest epoch a tailed entry carried.
	parked    []parkedRead
	readTimer <-chan time.Time
	freshAt   time.Time
	feedEpoch uint64

	// appliedSeq mirrors applied.Seq for lock-free monitoring reads.
	appliedSeq atomic.Uint64

	// retryPol shapes transient-failure retries against the log service.
	retryPol retry.Policy

	stopCtx context.Context
	stopFn  context.CancelFunc
	wg      sync.WaitGroup

	stats Stats
	// abortedReplies counts withheld replies the node failed; a step-down
	// reports its share on the flight ring.
	abortedReplies atomic.Int64

	// obs is the observability registry (nil when Config.NoObs). Histogram
	// recording is lock-free, so every goroutine may record; the map-backed
	// per-command lookup is RWMutex-guarded inside obs.
	obs *obs.Metrics

	// trace is the causal-tracing collector (nil = tracing off); flight
	// is the always-on black-box event ring.
	trace  *trace.Collector
	flight *trace.Flight
}

// Stats are cumulative node counters. Fields are atomics rather than a
// mutex-guarded struct: they are bumped on every command in the workloop
// hot path, where a closure-plus-lock per increment is measurable.
type Stats struct {
	Commands         atomic.Int64
	Mutations        atomic.Int64
	GatedReads       atomic.Int64
	AppendsFailed    atomic.Int64
	Demotions        atomic.Int64
	Promotions       atomic.Int64
	EntriesApplied   atomic.Int64
	SnapshotRestores atomic.Int64
	// BatchFlushes counts data entries appended by group commit;
	// BatchedRecords counts the mutation records they carried.
	// BatchedRecords/BatchFlushes is the node-side mean batch size.
	BatchFlushes   atomic.Int64
	BatchedRecords atomic.Int64
	// AppendsRetried counts transient append failures absorbed by the
	// retry discipline (data flushes, checksums, control entries);
	// RenewalsRetried counts the same for lease renewals. Neither implies
	// a demotion — that is exactly the point.
	AppendsRetried  atomic.Int64
	RenewalsRetried atomic.Int64
	// DegradedMillis accumulates time spent in degraded state: backoff
	// sleeps while retrying transient log failures, plus windows during
	// which commits carried fewer than AZCount acknowledgements.
	DegradedMillis atomic.Int64
	// TornSnapshotsDetected counts corrupt or torn snapshots this node's
	// restore path skipped (checksum/frame gate, §7.2.1) before finding a
	// usable one. Nonzero means recovery fell back to an older S3 version
	// or pure log replay instead of failing.
	TornSnapshotsDetected atomic.Int64
	// ReaderRebootstraps counts replica tailers that hit the log's trim
	// base (or a quarantined segment) and re-bootstrapped from the latest
	// usable snapshot in place — without a demotion. Normal background
	// noise on a trimming cluster, unlike LogGapRetries.
	ReaderRebootstraps atomic.Int64
	// LogGapRetries counts re-bootstraps that found the log trimmed past
	// the newest usable snapshot (ErrLogTrimmedGap) and had to wait for a
	// fresh snapshot. Nonzero means the trim coordinator violated its
	// safety invariant — always alarm-worthy.
	LogGapRetries atomic.Int64
	// BarrierOps counts the reads that gate on every outstanding write
	// rather than on their own keys: whole-keyspace reads, WAIT and
	// read-only transactions.
	BarrierOps atomic.Int64
	// Consistent replica read ladder outcomes: ReplicaReadsServed counts
	// reads served linearizably on this replica after the freshness
	// proof; ReplicaReadsStale counts reads served under an explicit
	// client-declared staleness bound after the proof failed or timed
	// out; ReplicaReadsRedirected counts reads bounced to the primary
	// (the final rung — never a silent stale serve). WatermarksFenced
	// counts piggybacked primary watermarks rejected by epoch fencing
	// (a deposed primary's view must not feed staleness accounting).
	ReplicaReadsServed     atomic.Int64
	ReplicaReadsStale      atomic.Int64
	ReplicaReadsRedirected atomic.Int64
	WatermarksFenced       atomic.Int64
}

// StatsView is a plain copy of the counters at one instant.
type StatsView struct {
	Commands         int64
	Mutations        int64
	GatedReads       int64
	AppendsFailed    int64
	Demotions        int64
	Promotions       int64
	EntriesApplied   int64
	SnapshotRestores int64
	BatchFlushes     int64
	BatchedRecords   int64
	AppendsRetried   int64
	RenewalsRetried  int64
	DegradedMillis   int64

	TornSnapshotsDetected int64
	ReaderRebootstraps    int64
	LogGapRetries         int64
	BarrierOps            int64

	ReplicaReadsServed     int64
	ReplicaReadsStale      int64
	ReplicaReadsRedirected int64
	WatermarksFenced       int64
}

// Snapshot returns a copy of the counters.
func (s *Stats) Snapshot() StatsView {
	return StatsView{
		Commands:         s.Commands.Load(),
		Mutations:        s.Mutations.Load(),
		GatedReads:       s.GatedReads.Load(),
		AppendsFailed:    s.AppendsFailed.Load(),
		Demotions:        s.Demotions.Load(),
		Promotions:       s.Promotions.Load(),
		EntriesApplied:   s.EntriesApplied.Load(),
		SnapshotRestores: s.SnapshotRestores.Load(),
		BatchFlushes:     s.BatchFlushes.Load(),
		BatchedRecords:   s.BatchedRecords.Load(),
		AppendsRetried:   s.AppendsRetried.Load(),
		RenewalsRetried:  s.RenewalsRetried.Load(),
		DegradedMillis:   s.DegradedMillis.Load(),

		TornSnapshotsDetected: s.TornSnapshotsDetected.Load(),
		ReaderRebootstraps:    s.ReaderRebootstraps.Load(),
		LogGapRetries:         s.LogGapRetries.Load(),
		BarrierOps:            s.BarrierOps.Load(),

		ReplicaReadsServed:     s.ReplicaReadsServed.Load(),
		ReplicaReadsStale:      s.ReplicaReadsStale.Load(),
		ReplicaReadsRedirected: s.ReplicaReadsRedirected.Load(),
		WatermarksFenced:       s.WatermarksFenced.Load(),
	}
}

// NewNode constructs a node; Start launches it. All nodes start as
// replicas (§4.2: "new nodes always start up as replicas").
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Log == nil {
		return nil, errors.New("core: Config.Log is required")
	}
	if cfg.Backoff <= cfg.Lease {
		return nil, fmt.Errorf("core: backoff (%v) must be strictly greater than lease (%v)", cfg.Backoff, cfg.Lease)
	}
	n := &Node{
		cfg:     cfg,
		clk:     cfg.Clock,
		role:    election.RoleReplica,
		changed: make(chan struct{}),
		tasks:   make(chan *task, 4096),
		retryPol: retry.Policy{
			Base:  retryBase,
			Max:   retryMax,
			Clock: cfg.Clock,
			Seed:  retry.SaltSeed(cfg.RetrySeed),
		},
	}
	n.stopCtx, n.stopFn = context.WithCancel(context.Background())
	n.trace = cfg.Trace
	n.flight = cfg.Flight
	if n.flight == nil {
		n.flight = trace.NewFlight(cfg.NodeID, cfg.FlightEvents)
	}
	if cfg.Faults != nil {
		// Injected faults that actually fire land on the flight timeline,
		// so a failed chaos run's report shows the nemesis next to the
		// transitions it caused.
		fl := n.flight
		cfg.Faults.SetObserver(func(site string, k faultpoint.Kind) {
			fl.Recordf(trace.EvFaultFire, 0, "%s (%s)", site, k)
		})
	}
	if !cfg.NoObs {
		n.obs = cfg.Obs
		if n.obs == nil {
			n.obs = obs.New(obs.Options{})
		}
		n.registerCounters()
	}
	n.eng = n.newEngine()
	return n, nil
}

// newEngine returns an engine over an empty keyspace wired to the node's
// observability, tracing and flight sinks.
func (n *Node) newEngine() *engine.Engine {
	eng := engine.New(n.clk)
	eng.SetObs(n.obs)
	eng.SetTrace(n.trace)
	eng.SetFlight(n.flight)
	return eng
}

// Obs returns the node's observability registry (nil when disabled).
func (n *Node) Obs() *obs.Metrics { return n.obs }

// FlightRecorder returns the node's black-box event ring (never nil).
func (n *Node) FlightRecorder() *trace.Flight { return n.flight }

// ID returns the node ID.
func (n *Node) ID() string { return n.cfg.NodeID }

// ShardID returns the shard this node serves.
func (n *Node) ShardID() string { return n.cfg.ShardID }

// AZ returns the node's availability zone label.
func (n *Node) AZ() string { return n.cfg.AZ }

// Role returns the node's current role.
func (n *Node) Role() election.Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Epoch returns the node's current leadership epoch view.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Stalled reports whether upgrade protection has stopped this replica
// from consuming the log (§7.1).
func (n *Node) Stalled() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stalled
}

// Stats exposes the node's counters.
func (n *Node) Stats() *Stats { return &n.stats }

// Stopped reports whether the node has been stopped.
func (n *Node) Stopped() bool { return n.stopCtx.Err() != nil }

// AppliedSeq returns the log sequence this node has applied through —
// the monitoring view of replica lag.
func (n *Node) AppliedSeq() uint64 { return n.appliedSeq.Load() }

// Changed returns a channel that is closed at the node's next change of
// role or epoch, freeze, thaw, upgrade stall or stop. Take it before
// reading the state it guards, then wait on it: a change in between
// closes it, so no change is missed.
func (n *Node) Changed() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.changed
}

// changedLocked wakes every Changed waiter and arms a fresh channel for
// the next change. n.mu held.
func (n *Node) changedLocked() {
	close(n.changed)
	n.changed = make(chan struct{})
}

// WaitApplied blocks until the node has applied the log through seq. It
// parks on the workloop's list beside the replica reads waiting on the
// applied position, so the apply path pays nothing for it while none
// waits. It returns ErrStopped when the node stops, txlog.ErrUpgradeStall
// when upgrade protection halts it short of seq (§7.1), and ctx's error
// when ctx ends first.
func (n *Node) WaitApplied(ctx context.Context, seq uint64) error {
	if n.AppliedSeq() >= seq {
		return nil
	}
	t := &task{kind: taskWait, done: make(chan struct{}, 1)}
	t.fn = func() error {
		n.parked = append(n.parked, parkedRead{t: t, seq: seq})
		return nil
	}
	if err := n.enqueue(ctx, t); err != nil {
		return err
	}
	return t.err
}

// EngineVersion returns the engine version this node runs.
func (n *Node) EngineVersion() uint32 { return n.cfg.EngineVersion }

// Start launches the workloop, which restores the node's state and then
// runs it.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.workloop()
}

// QueueDepth returns how many tasks wait on the workloop (monitoring).
func (n *Node) QueueDepth() int { return len(n.tasks) }

// Stop terminates the node. Withheld replies and parked reads are dropped
// with the workloop: every caller waiting on one already returns
// ErrStopped.
func (n *Node) Stop() {
	n.stopFn()
	n.mu.Lock()
	n.changedLocked()
	n.mu.Unlock()
	n.wg.Wait()
}

// setRole transitions the node's role (workloop only).
func (n *Node) setRole(role election.Role, epoch uint64) {
	n.mu.Lock()
	n.role = role
	if epoch > n.epoch {
		n.epoch = epoch
	}
	n.changedLocked()
	n.mu.Unlock()
	n.flight.Record(trace.EvRoleChange, epoch, role.String())
	switch role {
	case election.RolePrimary:
		n.stats.Promotions.Add(1)
	case election.RoleDemoted:
		n.stats.Demotions.Add(1)
	}
}

// partitioned reports whether this node is currently cut off from the
// transaction log service: a standing Error at its node.partition site,
// read as a level without counting a hit.
func (n *Node) partitioned() bool {
	return n.cfg.Faults.Standing(faultpoint.SiteNodePartition) == faultpoint.Error
}

// Freeze halts the node as an OS-level kill would: the workloop parks at
// its next crash gate, no cleanup runs, no reply is delivered, and
// in-flight appends are left in limbo (entries the log already
// assigned still commit — the durable-but-unacknowledged window a real
// crash produces). The node can then either be discarded and replaced by
// a fresh process that resyncs from S3 + the log (cluster.Restart), or
// thawed in place as a zombie that must be fenced (cluster.Resurrect).
func (n *Node) Freeze() { n.setFrozen(true) }

// Thaw resumes a frozen node exactly where it stopped — the zombie case:
// the stale process wakes believing whatever it believed at the kill
// instant, and only the log's conditional-append fencing (plus its
// expired lease) keeps it from acknowledging anything new.
func (n *Node) Thaw() { n.setFrozen(false) }

// setFrozen sets the crash flag and wakes the gate and every other waiter.
func (n *Node) setFrozen(frozen bool) {
	n.mu.Lock()
	n.frozen = frozen
	n.changedLocked()
	n.mu.Unlock()
}

// Frozen reports whether the node is currently crash-frozen.
func (n *Node) Frozen() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.frozen
}

// gate blocks while the node is frozen, waiting on its change signal. It
// returns false when the node was stopped (the crashed process is being
// torn down for replacement) — callers must unwind without side effects;
// true means the node is live (possibly thawed as a zombie) and execution
// may continue.
func (n *Node) gate() bool {
	for {
		n.mu.Lock()
		frozen, changed := n.frozen, n.changed
		n.mu.Unlock()
		if !frozen {
			return n.stopCtx.Err() == nil
		}
		select {
		case <-changed:
		case <-n.stopCtx.Done():
			return false
		}
	}
}

// checkpoint is one crash-fault gate on a critical path: it first parks
// while the node is frozen, then consults the fault registry for the
// named site. A Crash decision freezes the node at this exact instant —
// the calling goroutine blocks mid-operation until the node is either
// stopped (restart path: returns ErrStopped, the caller unwinds) or
// thawed (zombie path: returns nil, the stale operation resumes and must
// be fenced by the log). Delay stalls, Error injects a transient service
// failure, Corrupt is meaningless on these paths and ignored.
func (n *Node) checkpoint(site string) error {
	if !n.gate() {
		return ErrStopped
	}
	switch d := n.cfg.Faults.Hit(site); d.Kind {
	case faultpoint.Crash:
		n.Freeze()
		if !n.gate() {
			return ErrStopped
		}
	case faultpoint.Delay:
		n.clk.Sleep(d.Delay)
	case faultpoint.Error:
		return txlog.ErrUnavailable
	}
	return nil
}

// postCommitGate is checkpoint at a site past an entry's commit: nothing
// is left there for an injected transient failure to fail, so Error is
// ignored, as Corrupt is everywhere, and the release goes ahead. It fails
// only when the node was stopped while crashed there.
func (n *Node) postCommitGate(site string) error {
	if err := n.checkpoint(site); err == ErrStopped {
		return err
	}
	return nil
}

// noteAZHealth folds one committed append's acknowledgement count into the
// degraded-time accounting: the first partial-quorum commit opens a
// degraded window, the first fully replicated commit after it closes the
// window into Stats.DegradedMillis. Workloop only.
func (n *Node) noteAZHealth(p *txlog.Pending) {
	if p.Acks() < p.AZTotal() {
		if n.degradedSince == 0 {
			n.degradedSince = n.clk.Now().UnixNano()
		}
	} else if n.degradedSince != 0 {
		n.stats.DegradedMillis.Add((n.clk.Now().UnixNano() - n.degradedSince) / int64(time.Millisecond))
		n.degradedSince = 0
	}
}
