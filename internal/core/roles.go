package core

import (
	"errors"

	"memorydb/internal/election"
	"memorydb/internal/store"
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
	// Initial bootstrap: restore state before serving, retrying through
	// transient log/S3 unavailability.
	for n.resync() != nil {
		if n.stopCtx.Err() != nil {
			return
		}
		n.clk.Sleep(n.cfg.ReplicaPoll * 10)
	}
	for {
		select {
		case <-n.stopCtx.Done():
			return
		default:
		}
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
			if n.stopCtx.Err() != nil {
				return
			}
			if err := n.resync(); err != nil {
				if n.stopCtx.Err() != nil {
					return
				}
				// Transient restore failure (log/S3 unavailable): retry.
				n.clk.Sleep(n.cfg.ReplicaPoll * 10)
				continue
			}
			n.setRole(election.RoleReplica, 0)
		}
	}
}

// runReplica tails the transaction log, applying entries through the
// workloop, observing lease renewals, and campaigning for leadership when
// the backoff window elapses with no renewal observed (§4.1).
func (n *Node) runReplica() {
	reader := n.cfg.Log.NewReader(n.appliedPos())
	obs := election.NewObserver(n.electionConfig())
	// A pristine shard has never had a leader; there is no lease to
	// respect, so the first replica may campaign immediately.
	bootstrap := n.cfg.Log.CurrentEpoch() == 0 && n.cfg.Log.CommittedTail() == txlog.ZeroID

	for {
		select {
		case <-n.stopCtx.Done():
			return
		default:
		}
		if !n.gate() {
			// Stopped while crash-frozen: unwind without campaigning — a
			// dead replica must never become primary.
			return
		}
		if n.partitioned() {
			// Cut off from the log service: no reads, no campaigning.
			n.clk.Sleep(n.cfg.ReplicaPoll)
			continue
		}
		progressed := false
		for {
			e, ok, err := reader.TryNext()
			if err != nil {
				if errors.Is(err, txlog.ErrUnavailable) {
					// Transient service outage: the cursor is unchanged, so
					// the tailer reconnects by polling again — resuming from
					// the last delivered entry with no gaps or duplicates.
					// Demoting here would turn every log blip into replica
					// churn (and a pointless full restore).
					break
				}
				if errors.Is(err, txlog.ErrTrimmed) || errors.Is(err, txlog.ErrCorruptSegment) {
					// The trim coordinator dropped segments behind us (a
					// lagging tailer on a healthy, bounded log), or the
					// segment under the cursor was quarantined. Either way
					// the log can no longer serve our position — but a
					// snapshot can: re-bootstrap in place from the latest
					// usable snapshot plus the retained suffix, staying a
					// replica throughout. No demotion, no quarantine sleep.
					if !n.rebootstrapTailer() {
						return
					}
					reader = n.cfg.Log.NewReader(n.appliedPos())
					// The restore may have taken a while; treat it as having
					// just observed the primary so the fresh tailer does not
					// instantly campaign against a live lease it simply
					// hasn't read yet.
					obs.ObserveRenewal()
					bootstrap = false
					break
				}
				// Any other fatal read error: fall back to a full restore
				// through the demotion path.
				n.setRole(election.RoleDemoted, 0)
				return
			}
			if !ok {
				// Clean caught-up break: the reader drained the log to
				// its committed tail with the service answering — a
				// replica-LOCAL freshness proof (never the primary's
				// clock) that bounded-staleness serving measures from.
				// Under a partition or outage this point is never
				// reached, so the proof freezes and staleness grows.
				if !n.partitioned() {
					n.readGate.NoteFresh(n.clk.Now())
				}
				break
			}
			progressed = true
			// Fold in the piggybacked primary watermark. Entries arrive
			// in log order, so an in-log epoch regression is impossible
			// (conditional appends fence stale writers); the epoch check
			// is defense-in-depth against a replayed feed, and anything
			// it rejects is counted — a deposed primary's view must not
			// advance staleness accounting.
			if !n.readGate.NoteWatermark(e.EpochValue(), e.Watermark) {
				n.stats.WatermarksFenced.Add(1)
				n.flight.Recordf(trace.EvWatermarkFence, e.ID.Seq, "stale watermark from epoch %d rejected", e.EpochValue())
			}
			switch e.Type {
			case txlog.EntryLease, txlog.EntryLeadership:
				obs.ObserveRenewal()
				bootstrap = false
				if e.Type == txlog.EntryLeadership {
					n.mu.Lock()
					if e.Epoch > n.epoch {
						n.epoch = e.Epoch
					}
					n.mu.Unlock()
				}
				n.applyEntry(e)
			case txlog.EntryControl:
				if string(e.Payload) == string(LeaseReleasePayload) {
					// Collaborative hand-over: the primary released its
					// lease, so the backoff no longer applies.
					bootstrap = true
				}
				n.applyEntry(e)
			default:
				if err := n.applyEntry(e); err != nil {
					if errors.Is(err, txlog.ErrUpgradeStall) {
						// Stop consuming the log (§7.1) but keep serving
						// stale reads until the control plane replaces us.
						n.waitUntilStopped()
						return
					}
					// Apply failure or checksum divergence: this copy can
					// no longer be trusted, rebuild it from durable sources.
					n.setRole(election.RoleDemoted, 0)
					return
				}
			}
		}
		if !progressed {
			if (bootstrap || obs.CanCampaign()) && reader.CaughtUp() && !n.Stalled() {
				if n.campaign(reader.Position()) {
					return // promoted; role loop switches to runPrimary
				}
				// Lost the race or log unavailable; refresh the reader
				// position view and keep tailing.
				obs.ObserveRenewal()
				bootstrap = false
			}
			n.clk.Sleep(n.cfg.ReplicaPoll)
		}
	}
}

// rebootstrapTailer rebuilds the replica's state from the latest usable
// snapshot plus the retained log suffix after its tailer fell behind the
// trim base (or hit a quarantined segment). It retries through transient
// failures and — the one loud case — through ErrLogTrimmedGap, which means
// the trim coordinator discarded entries no snapshot covers; each gap
// retry is counted so tests and alarms can assert it never happens.
// Returns false when the node stopped instead.
func (n *Node) rebootstrapTailer() bool {
	n.stats.ReaderRebootstraps.Add(1)
	n.flight.Record(trace.EvTailerRebootstrap, n.applied.Seq, "tailer position trimmed or quarantined; restoring from snapshot")
	for {
		err := n.resync()
		if err == nil {
			return true
		}
		if n.stopCtx.Err() != nil {
			return false
		}
		if errors.Is(err, ErrLogTrimmedGap) {
			n.stats.LogGapRetries.Add(1)
		}
		n.clk.Sleep(n.cfg.ReplicaPoll * 10)
		if !n.gate() {
			return false
		}
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
	// positions under an all-shard barrier so no workloop observes them
	// mid-change. The running checksum continues from the log's value at
	// the claim (the claim is committed, so ChecksumAt cannot fail except
	// on a concurrent trim, in which case zero restarts verification).
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
			select {
			case n.shards[0].tasks <- &task{kind: taskRenew, shard: 0}:
			case <-n.stopCtx.Done():
				return
			}
			sweepCounter++
			if sweepCounter%4 == 0 {
				// Every shard sweeps its own part range, so expiry DELs
				// flow through the owning shard's group-commit buffer.
				for _, sh := range n.shards {
					select {
					case sh.tasks <- &task{kind: taskSweep, shard: sh.idx}:
					default:
					}
				}
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
	eng := n.newEngine(store.NewDB())
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
	// Install the rebuilt state under an all-shard barrier, then a fresh
	// tracker.
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

// drainWorkloop round-trips a barrier task through every shard workloop,
// blocking until everything queued (and in flight) ahead of it has been
// handled on each. Returns false when the node stopped instead.
func (n *Node) drainWorkloop() bool {
	for _, sh := range n.shards {
		t := &task{kind: taskDrain, shard: sh.idx, swapCh: make(chan struct{})}
		select {
		case sh.tasks <- t:
		case <-n.stopCtx.Done():
			return false
		}
		select {
		case <-t.swapCh:
		case <-n.stopCtx.Done():
			return false
		}
	}
	return true
}

func (n *Node) appliedPos() txlog.EntryID {
	// applied is owned by the role loop (the single apply driver), so
	// reading it from here is always safe.
	return n.applied
}

func (n *Node) waitUntilStopped() {
	<-n.stopCtx.Done()
}
