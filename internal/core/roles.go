package core

import (
	"context"
	"errors"
	"time"

	"memorydb/internal/election"
	"memorydb/internal/engine"
	"memorydb/internal/retry"
	"memorydb/internal/trace"
	"memorydb/internal/tracker"
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

// roleLoop drives the node through its lifecycle: replica (tail the log,
// campaign when the primary goes silent) → primary (renew lease) →
// demoted (resynchronize) → replica.
func (n *Node) roleLoop() {
	defer n.wg.Done()
	// Initial bootstrap: restore state before serving.
	if !n.resyncRetry() {
		return
	}
	for {
		if !n.gate() {
			return
		}
		switch n.Role() {
		case election.RoleReplica:
			n.runReplica()
		case election.RolePrimary:
			n.runPrimary()
		case election.RoleDemoted:
			// Drain the workloop before rebuilding state: when demotion
			// came from the role loop (lease expiry) the workloop may
			// still be inside a flush retry holding client replies gated
			// under the lost leadership. Those replies must fail out
			// while the node is observably demoted — resync would
			// otherwise race ahead and rejoin as a replica before the
			// failed writers ever saw the step-down.
			if !n.drainWorkloop() {
				return
			}
			// Fencing quarantine: a deposed primary sits out one full
			// backoff window before resyncing and rejoining. The window
			// guarantees the step-down is externally observable (failed
			// writers receive their errors while the node is still
			// demoted, never after it has already re-entered the fleet)
			// and that a caught-up successor has had time to claim
			// leadership, so the rejoin replays the new regime's history
			// rather than racing its election.
			n.clk.Sleep(n.cfg.Backoff)
			if !n.resyncRetry() {
				return
			}
			n.setRole(election.RoleReplica, 0)
		}
	}
}

// runReplica follows the transaction log as a subscriber (§3, §4.1): it
// applies every committed entry through the workloop, observes lease
// renewals, and once caught up parks until the log commits again or the
// backoff window elapses with no renewal observed — then it campaigns.
// The tailer keeps no timer of its own between "committed" and "applied":
// how soon a commit wakes it is the log's push cadence (txlog.notifyEvery).
func (n *Node) runReplica() {
	reader := n.cfg.Log.NewReader(n.applied)
	obs := election.NewObserver(n.electionConfig())
	if n.cfg.Log.CurrentEpoch() == 0 && n.cfg.Log.CommittedTail() == txlog.ZeroID {
		// A pristine shard has never had a leader; there is no lease to
		// respect, so the first replica may campaign immediately.
		obs.Release()
	}
	// cut is the backoff of a tailer that cannot read — the node-local
	// partition flag or a service outage, neither of which has a signal to
	// wait on. Nil while reads succeed, so every outage starts it afresh.
	var cut *retry.Backoff
	// due fires at armed, the campaign deadline it was last set for: one
	// timer per observed renewal, not one per park.
	var (
		armed time.Time
		due   <-chan time.Time
	)
	for {
		if !n.gate() {
			// Stopped (possibly while crash-frozen): unwind without
			// campaigning — a dead replica must never become primary.
			return
		}
		// Cut off from the log service: no reads, no campaigning.
		e, ok, err := txlog.Entry{}, false, error(txlog.ErrUnavailable)
		if !n.partitioned() {
			e, ok, err = reader.TryNext()
		}
		switch {
		case err == nil:
			cut = nil
		case errors.Is(err, txlog.ErrUnavailable):
			// Transient: the cursor is unchanged, so the tailer reconnects
			// by reading again — resuming from the last delivered entry
			// with no gaps or duplicates. Demoting here would turn every
			// log blip into replica churn (and a pointless full restore).
			if cut == nil {
				cut = n.retryPol.New()
			}
			if !n.pause(cut) {
				return
			}
			continue
		case errors.Is(err, txlog.ErrTrimmed) || errors.Is(err, txlog.ErrCorruptSegment):
			// The trim coordinator dropped segments behind us (a lagging
			// tailer on a healthy, bounded log), or the segment under the
			// cursor was quarantined. Either way the log can no longer
			// serve our position — but a snapshot can: re-bootstrap in
			// place from the latest usable snapshot plus the retained
			// suffix, staying a replica throughout. No demotion, no
			// quarantine sleep.
			n.stats.ReaderRebootstraps.Add(1)
			n.flight.Record(trace.EvTailerRebootstrap, n.applied.Seq, "tailer position trimmed or quarantined; restoring from snapshot")
			if !n.resyncRetry() {
				return
			}
			reader = n.cfg.Log.NewReader(n.applied)
			// The restore may have taken a while; treat it as having just
			// observed the primary so the fresh tailer does not instantly
			// campaign against a live lease it simply hasn't read yet.
			obs.ObserveRenewal()
			continue
		case errors.Is(err, txlog.ErrNoSuchLog):
			// The log was destroyed (end of a scale-in): nothing to tail,
			// nothing to lead. Keep serving stale reads until stopped.
			n.waitUntilStopped()
			return
		default:
			// Any other fatal read error: fall back to a full restore
			// through the demotion path.
			n.setRole(election.RoleDemoted, 0)
			return
		}

		if !ok {
			// Caught up: the reader drained the log to its committed tail
			// with the service answering — a replica-LOCAL freshness proof
			// (never the primary's clock) that bounded-staleness serving
			// measures from. Under a partition or outage this point is
			// never reached, so the proof freezes and staleness grows.
			now := n.clk.Now()
			n.readGate.NoteFresh(now)
			at := obs.CampaignAt()
			if !now.Before(at) {
				if n.campaign(reader.Position()) {
					return // promoted; role loop switches to runPrimary
				}
				// Lost the race or log unavailable: keep tailing.
				obs.ObserveRenewal()
				continue
			}
			if !at.Equal(armed) {
				armed, due = at, n.clk.After(at.Sub(now))
			}
			select {
			case <-reader.Ready():
			case <-due:
				armed = time.Time{} // spent; re-arm should the clock disagree
			case <-n.stopCtx.Done():
				return
			}
			continue
		}

		// Fold in the piggybacked primary watermark. Entries arrive in log
		// order, so an in-log epoch regression is impossible (conditional
		// appends fence stale writers); the epoch check is
		// defense-in-depth against a replayed feed, and anything it
		// rejects is counted — a deposed primary's view must not advance
		// staleness accounting.
		if !n.readGate.NoteWatermark(e.Epoch, e.Watermark) {
			n.stats.WatermarksFenced.Add(1)
			n.flight.Recordf(trace.EvWatermarkFence, e.ID.Seq, "stale watermark from epoch %d rejected", e.Epoch)
		}
		switch e.Type {
		case txlog.EntryLeadership:
			n.mu.Lock()
			if e.Epoch > n.epoch {
				n.epoch = e.Epoch
			}
			n.mu.Unlock()
			obs.ObserveRenewal()
		case txlog.EntryLease:
			obs.ObserveRenewal()
		case txlog.EntryControl:
			if string(e.Payload) == string(LeaseReleasePayload) {
				// Collaborative hand-over: the primary released its
				// lease, so the backoff no longer applies.
				obs.Release()
			}
		}
		if err := n.applyEntry(e); err != nil {
			if errors.Is(err, txlog.ErrUpgradeStall) {
				// Stop consuming the log (§7.1) but keep serving stale
				// reads until the control plane replaces us.
				n.waitUntilStopped()
				return
			}
			// Apply failure or checksum divergence: this copy can no
			// longer be trusted, rebuild it from durable sources.
			n.setRole(election.RoleDemoted, 0)
			return
		}
	}
}

// resyncRetry runs resync until it succeeds, backing off between attempts
// through transient failures (log/S3 unavailable, partition) and — the one
// loud case — through ErrLogTrimmedGap, which means the trim coordinator
// discarded entries no snapshot covers; each gap retry is counted so tests
// and alarms can assert it never happens. Returns false when the node
// stopped instead.
func (n *Node) resyncRetry() bool {
	bo := n.retryPol.New()
	for {
		err := n.resync()
		if err == nil {
			return true
		}
		if errors.Is(err, ErrLogTrimmedGap) {
			n.stats.LogGapRetries.Add(1)
		}
		if !n.pause(bo) {
			return false
		}
	}
}

// pause sleeps one step of bo — less when the node stops first. It
// returns false when the node stopped instead.
func (n *Node) pause(bo *retry.Backoff) bool {
	select {
	case <-n.clk.After(bo.Next()):
		return true
	case <-n.stopCtx.Done():
		return false
	}
}

// campaign attempts to acquire leadership conditioned on the replica's
// observed tail. Only a fully caught-up replica can succeed (§4.1.2).
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
	// Fresh tracker: the durable watermark starts at the claim entry.
	n.trk = tracker.New(claimID.Seq)
	n.mu.Unlock()
	// The sequencer chains appends after the claim entry; install the
	// positions on the workloop, which owns them. The running checksum
	// continues from the log's value at the claim (the claim is committed,
	// so ChecksumAt cannot fail except on a concurrent trim, in which case
	// zero restarts verification).
	sum, _ := n.cfg.Log.ChecksumAt(claimID)
	if !n.installState(nil, claimID, claimID, sum) {
		return false
	}
	n.setRole(election.RolePrimary, lease.Epoch())
	return true
}

// runPrimary renews the lease periodically and self-demotes when the
// lease can no longer be extended.
func (n *Node) runPrimary() {
	ticker := n.cfg.RenewEvery
	sweepCounter := 0
	for {
		select {
		case <-n.stopCtx.Done():
			return
		case <-n.roleChanged:
			if n.Role() != election.RolePrimary {
				return
			}
		case <-n.clk.After(ticker):
			if !n.gate() {
				return
			}
			n.mu.Lock()
			lease := n.lease
			role := n.role
			n.mu.Unlock()
			if role != election.RolePrimary {
				return
			}
			if lease == nil || !lease.Valid() {
				n.demote()
				return
			}
			n.post(n.renew, true)
			sweepCounter++
			if sweepCounter%4 == 0 {
				n.post(n.sweep, false)
			}
		}
	}
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
// suffix (§4.2.1). It runs entirely against shared, separately scaled
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
	// Install the rebuilt state on the workloop, then a fresh tracker.
	if !n.installState(eng, applied, txlog.ZeroID, 0) {
		return ErrStopped
	}
	n.replay = replay
	n.mu.Lock()
	n.trk = tracker.New(applied.Seq)
	n.stalled = false
	n.mu.Unlock()
	return nil
}

// drainWorkloop runs a task through the workloop, returning once
// everything queued (and in flight) ahead of it has been handled. On a
// node that is no longer primary, buffered mutations can never become
// durable; their replies fail now, while the step-down is externally
// observable. Returns false when the node stopped instead.
func (n *Node) drainWorkloop() bool {
	return n.run(context.Background(), func() error {
		if n.Role() != election.RolePrimary {
			n.abortPending(errDemoted)
		}
		return nil
	}) == nil
}

// installState replaces the node's engine state and/or log positions from
// the role loop (promotion installs positions; resync installs a rebuilt
// engine) as one workloop task, so no command observes half of it. Any
// buffered, never-logged mutations are discarded with errors — their
// clients must see failures, not silence (the node demoted before the
// resync that produced this install). issued and checksum reposition the
// sequencer: the claim entry and the log's checksum there on promotion,
// zero on resync. Returns false when the node stopped.
func (n *Node) installState(newEng *engine.Engine, newApplied, issued txlog.EntryID, checksum uint64) bool {
	return n.run(context.Background(), func() error {
		n.abortPending(errDemoted)
		if newEng != nil {
			n.eng = newEng
		}
		n.applied = newApplied
		n.appliedSeq.Store(newApplied.Seq)
		// The installed state covers everything through newApplied:
		// release every replica read parked at or below it. On promotion
		// this hands parked reads to the new primary's fully-caught-up
		// state; on resync the swap and the release are one task, so a
		// released read can never observe a half-rebuilt store.
		n.readGate.Advance(newApplied.Seq)
		n.lastIssued = issued
		n.runningChecksum = checksum
		n.dataSinceSum = 0
		return nil
	}) == nil
}

// applyEntry consumes one replicated log entry through the node's
// replayer (role loop only), so the tailer enforces exactly what restore
// enforced on the prefix below it. A stall marks the node and leaves the
// applied position before the refused entry.
func (n *Node) applyEntry(e txlog.Entry) error {
	if err := n.replay.Step(e, n.applyData); err != nil {
		switch {
		case errors.Is(err, txlog.ErrUpgradeStall):
			n.mu.Lock()
			n.stalled = true
			n.mu.Unlock()
		case errors.Is(err, txlog.ErrChecksumMismatch):
			n.flight.Recordf(trace.EvAlarm, e.ID.Seq, "replica state diverged from the log: %v", err)
		}
		return err
	}
	n.applied = e.ID
	n.appliedSeq.Store(e.ID.Seq)
	n.readGate.Advance(e.ID.Seq)
	return nil
}

// applyData applies one data entry's payload to the keyspace: the
// replayer's callback on the tailer. The payload is applied whole, as one
// workloop task, so a replica read sees an entry entirely or not at all.
func (n *Node) applyData(e txlog.Entry) error {
	// A traced entry extends the originating command's span tree onto this
	// node: the apply interval parents to the primary's append span.
	var applyStart int64
	traced := n.trace != nil && e.TraceID != 0
	if traced {
		applyStart = trace.Now()
	}
	payload := e.Payload
	if err := n.run(context.Background(), func() error { return n.eng.Apply(payload) }); err != nil {
		return err
	}
	n.stats.EntriesApplied.Add(1)
	if traced {
		n.trace.Emit(trace.SpanContext{TraceID: e.TraceID, SpanID: e.TraceSpan},
			"replica_apply", n.cfg.NodeID, -1, applyStart, trace.Now())
	}
	return nil
}

func (n *Node) waitUntilStopped() {
	<-n.stopCtx.Done()
}
