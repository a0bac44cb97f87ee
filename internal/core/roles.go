package core

import (
	"errors"
	"time"

	"memorydb/internal/election"
	"memorydb/internal/engine"
	"memorydb/internal/retry"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

func (n *Node) electionConfig() election.Config {
	return election.Config{
		NodeID:     n.cfg.NodeID,
		Lease:      n.cfg.Lease,
		Backoff:    n.cfg.Backoff,
		RenewEvery: n.cfg.RenewEvery,
		Clock:      n.clk,
	}
}

// The node's lifecycle runs on its workloop, as Redis runs its master
// link, serverCron and RDB loading on its one event loop: replica (tail
// the log, campaign when the primary goes silent) → primary (renew the
// lease) → demoted (sit out the backoff, resynchronize) → replica. Two of
// the workloop's select cases drive it, the tailer's cached Ready channel
// and the one role timer, and so does the roleChanged flag every step-down
// sets, which the workloop checks at the end of each turn. No step waits
// on another loop, and a step that blocks — a resync, a campaign's claim
// commit — holds the workloop, as Redis's -LOADING does.

// phase is the lifecycle step the role timer runs when it fires.
type phase int

const (
	// phaseRestore resyncs, retried on the timer until it succeeds: the
	// bootstrap, a trimmed tailer's re-bootstrap, a demoted node's rejoin.
	phaseRestore phase = iota
	// phaseTail follows the log as a replica; the timer is the campaign
	// deadline or, cut off from the log, the next read attempt.
	phaseTail
	// phaseLead is a primary; the timer is its renewal tick.
	phaseLead
	// phaseQuarantine is a deposed primary sitting out one backoff window.
	phaseQuarantine
	// phaseIdle has nothing left to drive: the log was destroyed, or a
	// newer engine stalled the replica (§7.1). The node keeps serving
	// stale reads until stopped.
	phaseIdle
)

// lifecycle is the role state the workloop owns.
type lifecycle struct {
	phase phase
	timer <-chan time.Time // the role timer; nil while disarmed
	// retry paces failed resyncs and a cut-off tailer's reads; nil while
	// the last attempt succeeded.
	retry *retry.Backoff
	// The tailer (phaseTail). ready is readNow while entries may wait,
	// reader.Ready() once caught up and nil while a retry is pending;
	// armed is the campaign deadline the timer was last set for.
	reader   *txlog.Reader
	ready    <-chan struct{}
	observer *election.Observer
	armed    time.Time
	// renewals counts renewal ticks since the promotion: every fourth
	// also sweeps expired keys.
	renewals int
}

// readNow is a closed channel: a tailer that may have entries waiting
// reads again on the workloop's next turn.
var readNow = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// enter starts phase p with a clean slate, the role timer set to fire
// after d (0 leaves it disarmed).
func (n *Node) enter(p phase, d time.Duration) {
	n.life = lifecycle{phase: p}
	if d > 0 {
		n.life.timer = n.clk.After(d)
	}
}

// backOff sets the role timer one retry step ahead.
func (n *Node) backOff() {
	if n.life.retry == nil {
		n.life.retry = n.retryPol.New()
	}
	n.life.timer = n.clk.After(n.life.retry.Next())
}

// roleTimer runs the lifecycle step the role timer was set for.
func (n *Node) roleTimer() {
	switch n.life.phase {
	case phaseRestore:
		n.restore()
	case phaseTail:
		n.life.armed = time.Time{} // spent; re-arm should the clock disagree
		n.tail()
	case phaseLead:
		n.tick()
	case phaseQuarantine:
		n.enter(phaseRestore, 0)
		n.restore()
	}
}

// roleChangedStep runs at the end of a turn that set roleChanged: a
// primary that stepped down — its lease ran out, an append was fenced, the
// log gave up an entry, StepDown — goes into quarantine.
func (n *Node) roleChangedStep() {
	if n.life.phase == phaseLead && n.Role() != election.RolePrimary {
		n.quarantine()
	}
}

// restore runs one resync attempt: on success the node (rejoining as a
// replica if it was demoted) follows the log from the restored position;
// on failure — the log or S3 unavailable, a partition, or the one loud
// case, ErrLogTrimmedGap (the trim coordinator discarded entries no
// snapshot covers; counted so tests and alarms can assert it never
// happens) — the timer retries it one backoff step later.
func (n *Node) restore() {
	err := n.resync()
	if err == nil {
		if n.Role() == election.RoleDemoted {
			n.setRole(election.RoleReplica, 0)
		}
		n.follow()
		return
	}
	if errors.Is(err, ErrLogTrimmedGap) {
		n.stats.LogGapRetries.Add(1)
	}
	n.backOff()
}

// follow starts tailing the log from the applied position.
func (n *Node) follow() {
	n.enter(phaseTail, 0)
	l := &n.life
	l.reader = n.cfg.Log.NewReader(n.applied)
	l.ready = readNow
	l.observer = election.NewObserver(n.electionConfig())
	if n.cfg.Log.CurrentEpoch() == 0 && n.cfg.Log.CommittedTail() == txlog.ZeroID {
		// A pristine shard has never had a leader; there is no lease to
		// respect, so the first replica may campaign immediately.
		l.observer.Release()
	}
}

// tail is one step of the replica tailer (§3, §4.1): it reads the next
// committed entry and applies it, or — caught up — waits on the log's
// commit signal beside the campaign deadline, and campaigns once the
// backoff window elapses with no renewal observed. One entry per step,
// so client tasks interleave with a lagging drain. The tailer keeps no
// timer of its own between "committed" and "applied": how soon a commit
// wakes it is the log's push cadence (txlog.notifyEvery).
func (n *Node) tail() {
	l := &n.life
	// Cut off from the log service: no reads, no campaigning.
	e, ok, err := txlog.Entry{}, false, error(txlog.ErrUnavailable)
	if !n.partitioned() {
		e, ok, err = l.reader.TryNext()
	}
	switch {
	case err == nil:
		l.retry = nil
	case errors.Is(err, txlog.ErrUnavailable):
		// Transient — the node-local partition flag or a service outage,
		// neither with a signal to wait on. The cursor is unchanged, so
		// the tailer reconnects by reading again one backoff step later,
		// resuming from the last delivered entry with no gaps or
		// duplicates. Demoting here would turn every log blip into
		// replica churn (and a pointless full restore).
		l.ready, l.armed = nil, time.Time{}
		n.backOff()
		return
	case errors.Is(err, txlog.ErrTrimmed) || errors.Is(err, txlog.ErrCorruptSegment):
		// The trim coordinator dropped segments behind us (a lagging
		// tailer on a healthy, bounded log), or the segment under the
		// cursor was quarantined. Either way the log can no longer serve
		// our position — but a snapshot can: re-bootstrap in place from
		// the latest usable snapshot plus the retained suffix, staying a
		// replica throughout. No demotion, no quarantine. The fresh
		// tailer starts a full backoff window, so it does not campaign
		// against a live lease it simply hasn't read yet.
		n.stats.ReaderRebootstraps.Add(1)
		n.flight.Record(trace.EvTailerRebootstrap, n.applied.Seq, "tailer position trimmed or quarantined; restoring from snapshot")
		n.enter(phaseRestore, 0)
		n.restore()
		return
	case errors.Is(err, txlog.ErrNoSuchLog):
		// The log was destroyed (end of a scale-in): nothing to tail,
		// nothing to lead. Keep serving stale reads until stopped.
		n.enter(phaseIdle, 0)
		return
	default:
		// Any other fatal read error: fall back to a full restore through
		// the demotion path.
		n.setRole(election.RoleDemoted, 0)
		n.quarantine()
		return
	}

	if !ok {
		// Caught up: the reader drained the log to its committed tail
		// with the service answering — a replica-LOCAL freshness proof
		// (never the primary's clock) that bounded-staleness serving
		// measures from. Under a partition or outage this point is never
		// reached, so the proof freezes and staleness grows.
		now := n.clk.Now()
		n.noteFresh(now)
		at := l.observer.CampaignAt()
		if !now.Before(at) {
			if n.campaign(l.reader.Position()) {
				return
			}
			// Lost the race or log unavailable: keep tailing.
			l.observer.ObserveRenewal()
			l.ready = readNow
			return
		}
		if !at.Equal(l.armed) {
			// One timer per observed renewal, not one per wait.
			l.armed, l.timer = at, n.clk.After(at.Sub(now))
		}
		l.ready = l.reader.Ready()
		return
	}
	l.ready = readNow

	n.fenceEpoch(e)
	switch e.Type {
	case txlog.EntryLeadership:
		n.mu.Lock()
		if e.Epoch > n.epoch {
			n.epoch = e.Epoch
			n.changedLocked()
		}
		n.mu.Unlock()
		l.observer.ObserveRenewal()
	case txlog.EntryLease:
		l.observer.ObserveRenewal()
	case txlog.EntryControl:
		if string(e.Payload) == string(LeaseReleasePayload) {
			// Collaborative hand-over: the primary released its lease, so
			// the backoff no longer applies.
			l.observer.Release()
		}
	}
	if err := n.applyEntry(e); err != nil {
		if errors.Is(err, txlog.ErrUpgradeStall) {
			// Stop consuming the log (§7.1) but keep serving stale reads
			// until the control plane replaces us.
			n.enter(phaseIdle, 0)
			return
		}
		// Apply failure or checksum divergence: this copy can no longer
		// be trusted, rebuild it from durable sources.
		n.setRole(election.RoleDemoted, 0)
		n.quarantine()
	}
}

// campaign attempts to acquire leadership conditioned on the replica's
// observed tail. Only a fully caught-up replica can succeed (§4.1.2). It
// holds the workloop for the claim's one commit.
func (n *Node) campaign(observedTail txlog.EntryID) bool {
	if n.partitioned() {
		return false
	}
	lease, claimID, err := election.Campaign(n.stopCtx, n.cfg.Log, n.electionConfig(), observedTail)
	if err != nil {
		return false
	}
	n.mu.Lock()
	n.lease = lease
	n.epoch = lease.Epoch()
	n.mu.Unlock()
	// The sequencer chains appends after the claim entry. The running
	// checksum continues from the log's value at the claim (the claim is
	// committed, so ChecksumAt cannot fail except on a concurrent trim,
	// in which case zero restarts verification).
	sum, _ := n.cfg.Log.ChecksumAt(claimID)
	n.installState(nil, claimID, claimID, sum)
	n.setRole(election.RolePrimary, lease.Epoch())
	n.enter(phaseLead, n.cfg.RenewEvery)
	return true
}

// tick is the primary's renewal timer: renew the lease — a lease that can
// no longer be extended steps the node down instead — and every fourth
// tick sweep expired keys.
func (n *Node) tick() {
	n.renew()
	if n.Role() != election.RolePrimary {
		return // roleChanged takes it from here
	}
	if n.life.renewals++; n.life.renewals%4 == 0 {
		n.sweep()
	}
	n.life.timer = n.clk.After(n.cfg.RenewEvery)
}

// quarantine sits the deposed primary out one full backoff window before
// it resyncs and rejoins. The step-down already failed every reply it
// withheld; the window guarantees failed writers see their errors while
// the node is still demoted, never after it re-entered the fleet, and that
// a caught-up successor has had time to claim leadership, so the rejoin
// replays the new regime's history rather than racing its election.
func (n *Node) quarantine() {
	n.enter(phaseQuarantine, n.cfg.Backoff)
}

// ErrLogTrimmedGap reports that the transaction log was trimmed past the
// replay start position (no snapshot, or none new enough): the suffix
// needed to bridge snapshot → tail no longer exists, and a restore must
// fail loudly rather than replay across the gap — a gapped replay would
// silently drop committed writes. Recovery needs a newer snapshot to
// appear (the builder's next pass), so callers may retry.
var ErrLogTrimmedGap = errors.New("core: log trimmed past newest usable snapshot; refusing gapped replay")

// resync rebuilds the node's state from durable sources: the latest
// usable snapshot chain in S3 (when configured) plus the transaction log
// suffix (§4.2.1), on the workloop. It runs entirely against shared, separately scaled
// services — no interaction with live peers. Corrupt or torn snapshot
// versions are skipped (counted in TornSnapshotsDetected), falling back
// to the next older version or pure log replay (§7.2.1). The replayer it
// seeds from the snapshot's log checksum is handed to the tailer, so the
// running checksum never restarts between restore and tailing.
func (n *Node) resync() error {
	if !n.gate() {
		return ErrStopped
	}
	if n.partitioned() {
		return errors.New("core: partitioned from durable sources")
	}
	eng := n.newEngine()
	from := txlog.ZeroID
	var sum uint64
	if n.cfg.Snapshots != nil {
		chain, ok, err := n.cfg.Snapshots.Resolve(n.cfg.ShardID, false)
		if chain.Skipped > 0 {
			n.stats.TornSnapshotsDetected.Add(int64(chain.Skipped))
		}
		if err != nil {
			return err
		}
		if ok {
			if chain.Tip.EngineVersion > n.cfg.EngineVersion {
				return errors.New("core: snapshot produced by newer engine version")
			}
			eng.ResetDB(chain.DB)
			from, sum = chain.Tip.LogPos, chain.Tip.LogChecksum
			n.stats.SnapshotRestores.Add(1)
		}
	}
	// Replay the suffix up to the committed tail at restore time; the
	// replica tailer continues from there. An entry from a newer engine
	// ends the replay early with the prefix intact: the tailer meets the
	// same entry through the same replayer and stalls there (§7.1).
	replay := txlog.NewReplayer(n.cfg.EngineVersion, sum)
	applied, err := replay.Range(n.cfg.Log, from, n.cfg.Log.CommittedTail(),
		func(e txlog.Entry) error { return eng.Apply(e.Payload) })
	if errors.Is(err, txlog.ErrTrimmed) {
		return ErrLogTrimmedGap
	}
	if err != nil && !errors.Is(err, txlog.ErrUpgradeStall) {
		return err
	}
	n.installState(eng, applied, txlog.ZeroID, 0)
	n.replay = replay
	n.mu.Lock()
	n.stalled = false
	n.mu.Unlock()
	return nil
}

// installState replaces the node's engine state and/or log positions
// (promotion installs positions; resync installs a rebuilt engine) in one
// workloop step, so no command observes half of it. It holds no withheld
// reply: only a primary withholds any, and its step-down failed them.
// issued and checksum reposition the sequencer: the claim entry — durable,
// so the watermark starts there — and the log's checksum at it on
// promotion, zero on resync.
func (n *Node) installState(newEng *engine.Engine, newApplied, issued txlog.EntryID, checksum uint64) {
	if newEng != nil {
		n.eng = newEng
	}
	// The installed state covers everything through newApplied: the end of
	// this turn releases every replica read parked at or below it. On
	// promotion that hands parked reads to the new primary's caught-up
	// state; on resync the release follows the whole swap, so a released
	// read can never observe a half-rebuilt store.
	n.applied = newApplied
	n.appliedSeq.Store(newApplied.Seq)
	n.lastIssued = issued
	n.durable = issued.Seq
	n.runningChecksum = checksum
	n.dataSinceSum = 0
}

// applyEntry consumes one replicated log entry through the node's
// replayer, so the tailer enforces exactly what restore
// enforced on the prefix below it. A stall marks the node and leaves the
// applied position before the refused entry.
func (n *Node) applyEntry(e txlog.Entry) error {
	if err := n.replay.Step(e, n.applyData); err != nil {
		switch {
		case errors.Is(err, txlog.ErrUpgradeStall):
			n.mu.Lock()
			n.stalled = true
			n.changedLocked()
			n.mu.Unlock()
		case errors.Is(err, txlog.ErrChecksumMismatch):
			n.flight.Recordf(trace.EvAlarm, e.ID.Seq, "replica state diverged from the log: %v", err)
		}
		return err
	}
	n.applied = e.ID
	n.appliedSeq.Store(e.ID.Seq)
	return nil
}

// applyData applies one data entry's payload to the keyspace: the
// replayer's callback on the tailer. The payload is applied whole, in one
// workloop step, so a replica read sees an entry entirely or not at all.
func (n *Node) applyData(e txlog.Entry) error {
	// A traced entry extends the originating command's span tree onto this
	// node: the apply interval parents to the primary's append span.
	var applyStart int64
	traced := n.trace != nil && e.TraceID != 0
	if traced {
		applyStart = trace.Now()
	}
	if err := n.eng.Apply(e.Payload); err != nil {
		return err
	}
	n.stats.EntriesApplied.Add(1)
	if traced {
		n.trace.Emit(trace.SpanContext{TraceID: e.TraceID, SpanID: e.TraceSpan},
			"replica_apply", n.cfg.NodeID, -1, applyStart, trace.Now())
	}
	return nil
}
