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
	"memorydb/internal/retry"
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
// snapshot is redundant). The pass after a full lands puts the newest
// chain through the §7.2.1 restore rehearsal (Verify) and trims the log
// behind that chain's base only if it passes, and the log itself only
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
	// Retry shapes the backoff applied to the S3 restore and upload legs,
	// so a brief storage blip degrades one pass's latency instead of
	// failing it. The zero value uses the library defaults.
	Retry retry.Policy
	// Faults injects crash faults into the pipeline (the emitSites of a
	// full or a delta, plus builder.lag). Production leaves it nil.
	Faults *faultpoint.Registry
	// Obs, when set, records snapshot_build / snapshot_upload (fulls) and
	// snapshot_delta_build / snapshot_delta_upload durations into named
	// histograms.
	Obs *obs.Metrics

	mu     sync.Mutex
	eng    *engine.Engine
	reader *txlog.Reader
	// replay consumes every entry the reader delivers: seeded from the
	// chain tip's log checksum at bootstrap, its running sum is what the
	// next snapshot records.
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
	// judge is set when a full has landed (this builder's emit, or the
	// chain it bootstrapped onto) and no verdict on the newest chain has
	// been reached since: the next pass rehearses it. judged is the base
	// of the last chain a verdict was reached on, so rebuilding onto a
	// judged chain does not judge it again.
	judge        bool
	judged       txlog.EntryID
	booted       bool
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

func (b *Builder) mgr() *Manager {
	pol := b.Retry
	if pol.Clock == nil {
		pol.Clock = b.clk()
	}
	return b.Manager.WithRetries(pol)
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

// bootstrap (re)builds the private materialized copy from the durable
// chain — the same path a recovering replica takes — and points the
// tailer at the chain tip.
func (b *Builder) bootstrap() error {
	chain, ok, err := b.mgr().Resolve(b.ShardID, false)
	if err != nil {
		return fmt.Errorf("builder: bootstrap: %w", err)
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
	b.needFull = !ok
	b.judge = b.judge || ok && chain.Base.LogPos != b.judged
	b.reader = b.Log.NewReader(b.pos)
	b.replay = txlog.NewReplayer(engine.Version, chain.Tip.LogChecksum)
	b.booted = true
	return nil
}

// rebootstrap drops the private copy and counts the restart; the caller's
// next step rebuilds from the chain.
func (b *Builder) rebootstrap() {
	b.booted = false
	b.rebootstraps++
}

// Tick performs one builder pass: judge the newest chain if a full has
// landed since the last verdict, catch the private copy up with the log,
// and emit a delta or compaction snapshot when the log-distance cadence
// is due. Transient log unavailability ends the drain early; ErrTrimmed
// or a quarantined segment under the tailer re-bootstraps from the
// chain, and a crash decision kills the in-memory copy
// (ErrBuilderCrashed).
func (b *Builder) Tick(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.judge {
		b.judgeNewest()
	}
	if err := b.catchUp(); err != nil {
		return err
	}
	if b.pos.Seq-b.lastEmit.Seq < b.deltaInterval() {
		return nil
	}
	_, err := b.emit(b.fullDue())
	return err
}

// fullDue reports whether the next emit is a full snapshot: there is no
// base to layer a delta on, or the chain has reached CompactEvery deltas.
func (b *Builder) fullDue() bool {
	return b.needFull || b.deltasSinceFull >= b.compactEvery()
}

// Full catches up with the log and dumps the private copy as a full
// snapshot at that position regardless of cadence, returning its meta —
// what an operator-requested or pre-trim checkpoint runs.
func (b *Builder) Full(ctx context.Context) (Meta, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.catchUp(); err != nil {
		return Meta{}, err
	}
	return b.emit(true)
}

// judgeNewest rehearses a restore from the newest chain and acts on the
// verdict. Only the chain's base may authorize a trim: restoring past a
// damaged tip delta falls back to an older prefix of the chain and
// replays the log from that lower position, so trimming to the tip would
// strand every delta above the base. A pass also prunes every version
// below the base, which the trim leaves unrestorable.
func (b *Builder) judgeNewest() {
	chain, err := Verify(b.Manager, b.ShardID, b.Log, b.clk())
	if errors.Is(err, s3.ErrUnavailable) || errors.Is(err, txlog.ErrUnavailable) {
		return // storage blip, not a verdict: the next pass, not a retry here, judges it
	}
	b.rehearsals++
	switch {
	case err == nil:
		b.Log.Trim(chain.Base.LogPos)
		b.Manager.removeBelow(b.ShardID, chain.Base.LogPos)
		b.judged = chain.Base.LogPos
	case errors.Is(err, errChainDamaged):
		// Evidence against the snapshot itself: quarantine it (idempotent
		// delete) so no restore can pick it up, and page. A tip this
		// builder never emitted leaves the judgement pending, so the next
		// pass judges the version below; if the builder's own chain runs
		// through the removed tip, a delta would land on a removed base,
		// so the next emit is a full, and that full is judged.
		_ = b.Manager.Remove(b.ShardID, chain.Tip.LogPos)
		b.alarmVerify(chain, err)
		if b.lastEmit.Less(chain.Tip.LogPos) {
			return
		}
		b.needFull = true
	default:
		// The log cannot be replayed past a snapshot whose own checksums
		// passed: not the snapshot's fault, so keep it, trim nothing and
		// page once. A shard that cannot verify snapshots is one trim
		// away from unrecoverable.
		b.alarmVerify(chain, err)
		b.judged = chain.Base.LogPos
	}
	b.judge = false
}

// alarmVerify pages that the judged chain failed its rehearsal.
func (b *Builder) alarmVerify(chain Chain, err error) {
	b.Manager.Flight.Recordf(trace.EvAlarm, chain.Tip.LogPos.Seq, "snapshot verification failed for shard %s at seq %d: %v",
		b.ShardID, chain.Tip.LogPos.Seq, err)
}

// catchUp checks the trim horizon and drains every committed entry into
// the private copy.
func (b *Builder) catchUp() error {
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
	if !b.booted {
		if err := b.bootstrap(); err != nil {
			return err
		}
	}
	// A builder below the trim horizon has lost the suffix it was tailing
	// — the alarmable condition the trim-safety invariant exists to
	// prevent. Recover by re-bootstrapping from the chain (trimming only
	// behind a verified base keeps it at or above the horizon).
	if base := b.Log.TrimBase(); b.pos.Seq < base.Seq {
		b.Manager.Health(b.ShardID).LagAlarms.Add(1)
		b.Manager.Flight.Recordf(trace.EvBuilderLag, b.pos.Seq, "builder: %s lag exceeded trim horizon (pos %d < base %d)",
			b.ShardID, b.pos.Seq, base.Seq)
		if err := b.bootstrap(); err != nil {
			return err
		}
	}
	if err := b.drain(); err != nil {
		return err
	}
	b.Manager.Health(b.ShardID).LagEntries.Store(int64(b.Log.CommittedTail().Seq - b.pos.Seq))
	return nil
}

// drain steps every currently committed entry through the replayer into
// the private copy.
func (b *Builder) drain() error {
	for {
		e, ok, err := b.reader.TryNext()
		if errors.Is(err, txlog.ErrUnavailable) {
			return nil // transient: cursor unchanged, retry next tick
		}
		if errors.Is(err, txlog.ErrTrimmed) || errors.Is(err, txlog.ErrCorruptSegment) {
			// The log no longer serves this position, but the chain may
			// cover it. If bootstrapping from the chain does not get past
			// it, nothing does: fail loudly instead of spinning.
			stuck := b.pos
			b.rebootstrap()
			if err := b.bootstrap(); err != nil {
				return err
			}
			if !stuck.Less(b.pos) {
				return fmt.Errorf("builder: no snapshot covers the log past %v: %w", stuck, err)
			}
			continue
		}
		if err != nil {
			return err
		}
		if !ok {
			return nil // caught up
		}
		if err := b.replay.Step(e, b.applyTracked); err != nil {
			// An entry this builder may not consume (newer engine) or whose
			// outcome contradicts the log: the cursor is already past it,
			// so drop the private copy — the next pass rebuilds from the
			// chain and meets the same entry again, never emitting past it.
			b.rebootstrap()
			return fmt.Errorf("builder: %w", err)
		}
		b.pos = e.ID
	}
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
	if err := b.mgr().SaveRaw(b.ShardID, meta.LogPos, data); err != nil {
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
