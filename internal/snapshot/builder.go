package snapshot

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/engine"
	"memorydb/internal/faultpoint"
	"memorydb/internal/obs"
	"memorydb/internal/s3"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// BuilderHealth is the builder's exported health block, hung off the
// snapshot Manager under the builder's shard ID, so every node of the
// shard can export it (Prometheus gauges, INFO # Robustness) without
// holding the builder.
type BuilderHealth struct {
	// LagEntries is the builder's distance behind the committed tail.
	LagEntries atomic.Int64
	// DeltasEmitted / Compactions count snapshots produced.
	DeltasEmitted atomic.Int64
	Compactions   atomic.Int64
	// ChainDepth is the current chain length at the newest emitted tip.
	ChainDepth atomic.Int64
	// LagAlarms counts times the builder fell behind the trim horizon.
	LagAlarms atomic.Int64
}

// Builder is the one snapshot producer: the forkless checkpointer
// (Taurus-style "the log is the database"). Instead of forking the
// engine and paying COW+swap for a BGSave, it runs a dedicated
// transaction-log reader — exactly like a replica tailer — into a private
// materialized keyspace that lives entirely off the critical path
// (§4.2.2). At a configurable log-distance cadence it emits an
// *incremental delta* (only the objects changed since the previous
// snapshot, plus tombstones for deletions), and every CompactEvery deltas
// it compacts the chain by dumping its materialized copy as a fresh full
// snapshot. The engine never forks, never pauses, and write latency stays
// flat while snapshots stream out.
//
// It is also the one log trimmer (§4.2.3: everything below a verified
// snapshot is redundant). The pass after a full lands drops the private
// copy and rebuilds it from the newest chain: that restore is the chain's
// §7.2.1 rehearsal, and the builder trims the log behind the chain's base
// only if it passes. The log itself only
// drops whole sealed segments at or below that position. The two gates
// compose into the trim-safety invariant: any replica or restore path
// that needs entry N either finds a snapshot at position >= N, or the log
// still holds N. A reader that still hits ErrTrimmed after
// re-bootstrapping from the latest snapshot has found a trim bug, which
// core surfaces as the loud ErrLogTrimmedGap — never a normal condition.
type Builder struct {
	Manager *Manager
	Log     *txlog.Log
	ShardID string
	// EngineVersion stamps produced snapshots (pinned to the oldest
	// running version during mixed-version upgrades, §7.1, so every node
	// can restore from them). It is not the version the builder replays
	// at: that is always this binary's engine.Version.
	EngineVersion uint32
	// DeltaInterval is the log-distance cadence: a delta is emitted once
	// this many entries accumulated since the last snapshot (default 512).
	DeltaInterval uint64
	// CompactEvery bounds chain length: after this many deltas the next
	// emit is a full snapshot, resetting the chain (default 8).
	CompactEvery int
	Clock        clock.Clock
	// Faults injects crash faults into the pipeline (the emitSites of a
	// full or a delta, plus builder.lag). Production leaves it nil.
	Faults *faultpoint.Registry
	// Obs, when set, records snapshot_build / snapshot_upload (fulls) and
	// snapshot_delta_build / snapshot_delta_upload durations into named
	// histograms.
	Obs *obs.Metrics

	mu sync.Mutex
	// eng is the private materialized copy; nil means the next pass
	// rebuilds it from the newest chain.
	eng *engine.Engine
	// replay consumes every entry drained into eng: seeded from the chain
	// tip's log checksum at bootstrap, its running sum is what the next
	// snapshot records.
	replay   *txlog.Replayer
	pos      txlog.EntryID // last log entry applied to the private copy
	lastEmit txlog.EntryID // position of the last emitted snapshot
	// chain bookkeeping for the next emit's meta
	chainDepth      uint32
	deltasSinceFull int
	dirty           map[string]struct{}
	// needFull forces the next emit to be a full snapshot: set on
	// bootstrap (no base yet) and on wholesale rewrites (FLUSHALL) that
	// per-key deltas cannot describe.
	needFull bool
	// judge is set while the newest chain (this builder's full, or the
	// chain it rebuilt onto) is owed a verdict: the next Tick rebuilds the
	// copy from it, and that rebuild is its restore rehearsal. judged is
	// the base of the last chain a verdict was reached on, so rebuilding
	// onto a judged chain does not judge it again.
	judge        bool
	judged       txlog.EntryID
	rebootstraps int64
	rehearsals   int64
}

// ErrBuilderCrashed reports that a fault schedule killed the builder
// mid-run; its in-memory materialized copy is gone and the next tick
// re-bootstraps from the durable chain, exactly like a restarted process.
var ErrBuilderCrashed = errors.New("builder: crashed by fault schedule")

func (b *Builder) clk() clock.Clock {
	if b.Clock == nil {
		b.Clock = clock.NewReal()
	}
	return b.Clock
}

func (b *Builder) deltaInterval() uint64 {
	if b.DeltaInterval == 0 {
		return 512
	}
	return b.DeltaInterval
}

func (b *Builder) compactEvery() int {
	if b.CompactEvery == 0 {
		return 8
	}
	return b.CompactEvery
}

// BuilderStats is a test/inspection view of builder progress.
type BuilderStats struct {
	Pos             txlog.EntryID
	DeltasSinceFull int
	Rebootstraps    int64
	// Rehearsals counts the restore rehearsals that reached a verdict.
	Rehearsals int64
}

// Stats returns the builder's current progress counters.
func (b *Builder) Stats() BuilderStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BuilderStats{Pos: b.pos, DeltasSinceFull: b.deltasSinceFull, Rebootstraps: b.rebootstraps,
		Rehearsals: b.rehearsals}
}

// bootstrap rebuilds the private copy from the newest restorable chain —
// the path a recovering replica takes — and seeds the replayer at its
// tip. In a Tick (judging), a rebuild onto a chain owed a verdict is that
// chain's restore rehearsal (§7.2.1), and the rebuild runs its first two
// gates:
//
//  1. every link of the chain passes its checksum; with a verdict owed,
//     resolution judges the newest chain and does not fall back past it;
//  2. the tip's stored log checksum matches the log's running checksum at
//     the tip: the chain is equivalent to the log prefix it claims.
//
// A tip that fails either is evidence against the snapshot: it is
// quarantined (an idempotent delete) so no restore picks it up, the
// failure pages, the rebuild falls back to the chain below, and the next
// emit is a full, which is judged in turn. Gate 3 is catchUp's drain.
// Every S3 request is made once: a storage blip is no verdict, and the
// next pass is its retry.
func (b *Builder) bootstrap(judging bool) (Chain, error) {
	for owed := false; ; owed = true {
		newest := judging && (b.judge || owed)
		chain, ok, err := b.Manager.Resolve(b.ShardID, newest)
		if judging && ok && (b.judge || chain.Base.LogPos != b.judged) {
			err = b.matchLog(chain)
		}
		if errors.Is(err, errChainDamaged) {
			b.rehearsals++
			b.alarmVerify(chain.Tip.LogPos, err)
			if err := b.Manager.Remove(b.ShardID, chain.Tip.LogPos); err != nil {
				return Chain{}, fmt.Errorf("builder: quarantine: %w", err)
			}
			continue
		}
		if err != nil {
			return Chain{}, fmt.Errorf("builder: bootstrap: %w", err)
		}
		b.eng = engine.New(b.clk())
		if ok {
			b.eng.ResetDB(chain.DB)
		}
		b.pos = chain.Tip.LogPos
		b.lastEmit = b.pos
		b.chainDepth = chain.Tip.ChainDepth
		b.deltasSinceFull = chain.Depth
		b.dirty = make(map[string]struct{})
		b.needFull = !ok || owed
		b.judge = ok && (b.judge || chain.Base.LogPos != b.judged)
		b.replay = txlog.NewReplayer(engine.Version, chain.Tip.LogChecksum)
		return chain, nil
	}
}

// matchLog is gate 2 on chain's tip. A log that cannot answer at the tip
// is no evidence against the snapshot: that verdict is reached here, and
// the rebuild goes on.
func (b *Builder) matchLog(chain Chain) error {
	tip := chain.Tip
	want, err := b.Log.ChecksumAt(tip.LogPos)
	if err != nil {
		b.rule(chain, fmt.Errorf("log prefix unavailable at %v: %w", tip.LogPos, err))
		return nil
	}
	if want != tip.LogChecksum {
		return fmt.Errorf("%w: %w at %v: snapshot has %#x, log has %#x",
			errChainDamaged, txlog.ErrChecksumMismatch, tip.LogPos, tip.LogChecksum, want)
	}
	return nil
}

// rebootstrap drops the private copy and counts the restart; the next
// drain rebuilds it from the chain.
func (b *Builder) rebootstrap() {
	b.eng = nil
	b.rebootstraps++
}

// Tick performs one builder pass: rebuild the private copy from the
// newest chain if a full has landed since the last verdict (the
// rehearsal), catch the copy up with the log, and emit a delta or
// compaction snapshot when the log-distance cadence is due. Transient log
// unavailability ends the drain early and an S3 outage defers a rebuild
// to the next pass; ErrTrimmed or a quarantined segment under the copy
// rebuilds it from the chain, and a crash decision kills the in-memory
// copy (ErrBuilderCrashed).
func (b *Builder) Tick(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.judge {
		b.eng = nil // the rebuild from the newest chain is its rehearsal
	}
	err := b.catchUp(true)
	if b.eng == nil && errors.Is(err, s3.ErrUnavailable) {
		return nil // no copy until S3 answers: the next pass rebuilds it
	}
	if err != nil {
		return err
	}
	if b.pos.Seq-b.lastEmit.Seq < b.deltaInterval() {
		return nil
	}
	_, err = b.emit(b.fullDue())
	return err
}

// fullDue reports whether the next emit is a full snapshot: there is no
// base to layer a delta on, or the chain has reached CompactEvery deltas.
func (b *Builder) fullDue() bool {
	return b.needFull || b.deltasSinceFull >= b.compactEvery()
}

// Full catches up with the log and dumps the private copy as a full
// snapshot at that position regardless of cadence, returning its meta —
// what an operator-requested or pre-trim checkpoint runs. It never
// judges: the next Tick does.
func (b *Builder) Full(ctx context.Context) (Meta, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.catchUp(false); err != nil {
		return Meta{}, err
	}
	return b.emit(true)
}

// rule acts on the verdict of chain's rehearsal. A pass trims the log
// behind the chain's base and prunes every version below it. Only the
// base may authorize a trim: restoring past a damaged tip delta falls
// back to an older prefix of the chain and replays the log from there,
// so trimming to the tip would strand every delta above the base. A
// failure once the chain's own checksums passed is the log disagreeing
// with itself, not the snapshot's fault: keep it, trim nothing and page
// once. A shard that cannot verify snapshots is one trim away from
// unrecoverable.
func (b *Builder) rule(chain Chain, err error) {
	b.rehearsals++
	b.judge = false
	b.judged = chain.Base.LogPos
	if err != nil {
		b.alarmVerify(chain.Tip.LogPos, err)
		return
	}
	b.Log.Trim(chain.Base.LogPos)
	b.Manager.removeBelow(b.ShardID, chain.Base.LogPos)
}

// alarmVerify pages that the chain with tip failed its rehearsal.
func (b *Builder) alarmVerify(tip txlog.EntryID, err error) {
	b.Manager.Flight.Recordf(trace.EvAlarm, tip.Seq, "snapshot verification failed for shard %s at seq %d: %v",
		b.ShardID, tip.Seq, err)
}

// catchUp drains every committed entry through the replayer into the
// private copy, rebuilding the copy from the chain first when it is gone.
// After a rehearsal's rebuild the drain is gate 3: the replayer chains
// the running checksum from the tip's stored value and compares it with
// every checksum entry, as a restoring node does, and reaching the
// committed tail is the verdict.
func (b *Builder) catchUp(judging bool) error {
	// Lag gate: every pass consults builder.lag with the current horizon.
	switch d := b.Faults.Hit(faultpoint.SiteBuilderLag); d.Kind {
	case faultpoint.Crash:
		b.rebootstrap()
		return ErrBuilderCrashed
	case faultpoint.Error:
		// Injected loss of the materialized copy.
		b.rebootstrap()
	case faultpoint.Delay:
		b.clk().Sleep(d.Delay)
	}
	var chain Chain
	var stuck txlog.EntryID // where the log lost the copy's next entry
	var lost error          // what the log said there; nil until then
	for {
		if b.eng == nil {
			var err error
			if chain, err = b.bootstrap(judging); err != nil {
				return err
			}
			if lost != nil && !stuck.Less(b.pos) {
				// The chain does not get past the entry the log lost, so
				// nothing does: fail loudly instead of spinning.
				return fmt.Errorf("builder: no snapshot covers the log past %v: %w", stuck, lost)
			}
		}
		var err error
		b.pos, err = b.replay.Range(b.Log, b.pos, b.Log.CommittedTail(), b.applyTracked)
		if judging && b.judge && !errors.Is(err, txlog.ErrUnavailable) {
			b.rule(chain, err)
		}
		if errors.Is(err, txlog.ErrTrimmed) || errors.Is(err, txlog.ErrCorruptSegment) {
			// The log no longer serves the copy's next entry, but the
			// chain may cover it. A copy below the trim horizon has lost
			// the suffix it was tailing — the alarmable condition the
			// trim-safety invariant exists to prevent (trimming only
			// behind a verified base keeps it at or above the horizon).
			if base := b.Log.TrimBase(); b.pos.Seq < base.Seq {
				b.Manager.Health(b.ShardID).LagAlarms.Add(1)
				b.Manager.Flight.Recordf(trace.EvBuilderLag, b.pos.Seq, "builder: %s lag exceeded trim horizon (pos %d < base %d)",
					b.ShardID, b.pos.Seq, base.Seq)
			}
			stuck, lost = b.pos, err
			b.rebootstrap()
			continue
		}
		if err != nil && !errors.Is(err, txlog.ErrUnavailable) {
			// An entry this builder may not consume (newer engine) or
			// whose outcome contradicts the log: drop the private copy —
			// the next pass rebuilds from the chain and meets the same
			// entry again, never emitting past it.
			b.rebootstrap()
			return fmt.Errorf("builder: %w", err)
		}
		// Caught up, or the log is briefly unavailable: the cursor stays
		// and the next pass goes on from it.
		break
	}
	b.Manager.Health(b.ShardID).LagEntries.Store(int64(b.Log.CommittedTail().Seq - b.pos.Seq))
	return nil
}

// applyTracked is the replayer's callback: apply one data entry to the
// private copy, remembering which keys it changed for the next delta. A
// full emit reads the whole copy and clears the dirty set, and a failed
// one leaves the full still due, so while a full is due nothing is
// tracked.
func (b *Builder) applyTracked(e txlog.Entry) error {
	if b.fullDue() {
		return b.eng.Apply(e.Payload)
	}
	keys, wholesale, err := b.eng.ApplyTracked(e.Payload)
	if err != nil {
		return err
	}
	if wholesale {
		// FLUSHALL-style rewrites invalidate per-key tracking; the
		// next emit must be a full image.
		b.needFull = true
		b.dirty = make(map[string]struct{})
	}
	for _, k := range keys {
		b.dirty[k] = struct{}{}
	}
	return nil
}

// emitSite is one fault site on the emit tail and the damage a Corrupt
// decision does there (nil: none).
type emitSite struct {
	name    string
	corrupt func(*faultpoint.Registry, []byte) []byte
}

// Corrupt at a build site is silent bit rot in the serialized image; at
// an upload site it is a torn write (§7.2.1) — both upload bytes that
// chain resolution's per-link checksum must later reject, falling back to
// the longest intact prefix. A crash anywhere leaves the previous chain
// intact in S3: restores keep working off the old links.
var (
	fullSites = []emitSite{
		{faultpoint.SiteCompact, (*faultpoint.Registry).FlipByte},
		{faultpoint.SiteSnapBuild, (*faultpoint.Registry).FlipByte},
		{faultpoint.SiteSnapUpload, (*faultpoint.Registry).TornWrite},
		{faultpoint.SiteS3Put, nil},
	}
	deltaSites = []emitSite{
		{faultpoint.SiteDeltaBuild, (*faultpoint.Registry).FlipByte},
		{faultpoint.SiteDeltaUpload, (*faultpoint.Registry).TornWrite},
		{faultpoint.SiteS3Put, nil},
	}
)

// emit produces one snapshot of the private copy at the current
// position: a full dump (compaction, resetting the chain) or an
// incremental delta of the dirty keys. Both kinds share one tail —
// serialize, fault sites, upload, bookkeeping.
func (b *Builder) emit(full bool) (Meta, error) {
	buildStart := obs.Now()
	meta := Meta{
		ShardID: b.ShardID, EngineVersion: b.EngineVersion,
		LogPos: b.pos, LogChecksum: b.replay.Sum(), Kind: KindFull,
	}
	sites, hist := fullSites, "snapshot"
	var keys []string
	if !full {
		sites, hist = deltaSites, "snapshot_delta"
		meta.Kind, meta.BasePos, meta.ChainDepth = KindDelta, b.lastEmit, b.chainDepth+1
		keys = make([]string, 0, len(b.dirty))
		for k := range b.dirty {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic bodies for a given dirty set
	}
	data := encodeFile(b.eng.DB(), full, keys, meta)
	if b.Obs != nil {
		b.Obs.Named(hist + "_build").ObserveNanos(obs.Now() - buildStart)
	}
	uploadStart := obs.Now()
	for _, site := range sites {
		switch d := b.Faults.Hit(site.name); d.Kind {
		case faultpoint.Crash:
			b.rebootstrap()
			return Meta{}, ErrBuilderCrashed
		case faultpoint.Error:
			return Meta{}, fmt.Errorf("builder: %s: injected fault", site.name)
		case faultpoint.Delay:
			b.clk().Sleep(d.Delay)
		case faultpoint.Corrupt:
			if site.corrupt != nil {
				data = site.corrupt(b.Faults, data)
			}
		}
	}
	if err := b.Manager.SaveRaw(b.ShardID, meta.LogPos, data); err != nil {
		return Meta{}, fmt.Errorf("builder: %s upload: %w", meta.Kind, err)
	}
	if b.Obs != nil {
		b.Obs.Named(hist + "_upload").ObserveNanos(obs.Now() - uploadStart)
	}
	b.lastEmit = meta.LogPos
	b.chainDepth = meta.ChainDepth
	b.dirty = make(map[string]struct{})
	health := b.Manager.Health(b.ShardID)
	if full {
		b.deltasSinceFull = 0
		b.needFull = false
		b.judge = true
		health.Compactions.Add(1)
	} else {
		b.deltasSinceFull++
		health.DeltasEmitted.Add(1)
	}
	health.ChainDepth.Store(int64(b.chainDepth))
	return meta, nil
}

// passInterval paces Run: the builder is throughput work that drains what
// accumulated since its last pass (builder.lag is counted per pass), so it
// keeps a cadence rather than waking per commit like a replica tailer.
const passInterval = 25 * time.Millisecond

// Run ticks until ctx is cancelled. Emit failures (including injected
// crashes) are absorbed: the dirty set and cursor survive — or
// re-bootstrap from the chain — and the next tick retries.
func (b *Builder) Run(ctx context.Context) {
	clk := b.clk()
	for {
		select {
		case <-ctx.Done():
			return
		case <-clk.After(passInterval):
			_ = b.Tick(ctx)
		}
	}
}
