# Tier-1 verification gate: everything a change must pass before merge.
# `make check` = vet + build + full test suite, a race-detector pass over
# the packages with the most cross-goroutine traffic (the node workloop +
# group commit, the transaction log, and the front-end's goroutine per
# connection), over the sequence gate the benchmark ladder times, and over
# the keyspace whose only synchronization is "one owner per part" (store,
# the engine that drives it, and the snapshot restore that builds it on
# parallel workers from the objects S3 shares with every reader), and over
# the server binary's wiring (a cluster, its builders and Monitor behind
# one endpoint), and over slot migration (a dump and a replay of the
# source's log applied on the target while both shards serve), then the
# fixed-seed fault gates below.
# scripts/check.sh is `exec make check`.

GO ?= go

.PHONY: check vet build test race benchmark-module fuzz chaos crash obs reads soak forkless bench

check: vet build test race benchmark-module fuzz chaos crash reads soak forkless obs

# staticcheck is optional tooling: run it when the runner has it on PATH,
# skip silently otherwise (the container image does not bake it in). The
# tree stays gofmt-clean: any file gofmt would rewrite fails the gate
# (.bench_build/ is the benchmark's build cache, not source).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '^\.bench_build/' || true); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/ ./internal/tracker/ ./internal/txlog/ ./internal/store/ ./internal/engine/ ./internal/snapshot/ ./internal/s3/ ./internal/server/ ./cmd/memorydb-server/
	$(GO) test -race -run 'Migrat|SlotMigration|ScaleOut|ReplaySlot' ./internal/cluster/

# The frozen benchmark is its own module importing this one (`go build
# ./...` never sees it): a change to the surface it uses must fail here,
# not in the pipeline.
benchmark-module:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Hostile-input gate: 10 s of native fuzzing for every Fuzz* target in the
# tree — the decoders of bytes from a socket (resp), the log (engine
# records, txlog segments), S3 (snapshots) and the environment
# (faultpoint specs). `go test` alone replays only their corpora, and
# -fuzz takes one target in one package per run, hence the loop.
fuzz:
	@set -e; grep -rE --include='*_test.go' '^func Fuzz[A-Za-z0-9_]+\(' internal | \
	sed -E 's|^(.*)/[^/]+_test\.go:func (Fuzz[A-Za-z0-9_]+)\(.*|\1 \2|' | sort -u | \
	while read pkg target; do \
		echo "fuzzing $$target in ./$$pkg/ for 10s"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s ./$$pkg/; \
	done

# matrix runs the internal/cluster tests matching $(1) under the race
# detector at seeds {1,2}: fault schedules must reproduce at two pinned
# seeds so fault-path regressions are deterministic. Chaos-family tests
# read the chaos seed, crash-family the other.
define matrix
	@set -e; for seed in 1 2; do \
		echo "seed=$$seed $(GO) test -race -run '$(1)' ./internal/cluster/"; \
		MEMORYDB_CHAOS_SEED=$$seed MEMORYDB_CRASH_SEED=$$seed \
			$(GO) test -race -run '$(1)' ./internal/cluster/; \
	done
endef

# Chaos gate: AZ outages, rolling maintenance, flaky-AZ storm, randomized
# fault storm.
chaos:
	$(call matrix,Chaos)

# Deterministic crash-fault gate: the kill/restart/zombie schedules —
# every registered fault site exercised, torn-snapshot fallback,
# committed-but-unacknowledged writes — zero acknowledged writes lost,
# linearizability clean.
crash:
	$(call matrix,CrashRestart)

# Metrics-overhead guard: recording must stay zero-alloc (internal/obs),
# and a node with metrics on — and one with 1% trace sampling and the
# flight recorder on top — must stay within 5% of a NoObs node's CPU time
# per write (internal/core TestObsOverheadGuard, armed by
# MEMORYDB_OBS_GUARD=1). Known red: it measures 7–14% until the per-stage
# stamps are sampled rather than taken for every command, which is why
# `check` runs it last.
obs:
	MEMORYDB_OBS_GUARD=1 $(GO) test -run TestObsOverheadGuard -count=1 ./internal/obs/ ./internal/core/

# Consistent replica reads: the replica-read fault schedules
# (failover storm, bounded-staleness partition, log-trim rebootstrap)
# must hold linearizability — no stale value ever served as
# linearizable, bounded-stale serves within their declared bound.
reads:
	$(call matrix,ReplicaReads)

# Bounded-log soak gate: sustained write load with the snapshot builder,
# which trims behind each verified full, at its normal cadence must keep
# live log bytes under twice the segment threshold at every sample — the
# log may never grow without bound.
soak:
	MEMORYDB_SOAK=1 $(GO) test -run TestSoakBoundedLog -count=1 ./internal/cluster/

# Forkless-snapshot gate: the log-tailing builder's crash schedules
# (crash mid-delta, crash mid-compaction, corrupt-delta-in-chain
# fallback, restore from a deep full+delta chain) must restore the exact
# acknowledged state — zero trimmed-gap retries, zero restore failures
# through quarantined chains. The snapshot package's chain-fallback
# property test and the builder-trim race (builder, writer and a log
# tailer) run alongside.
forkless:
	$(call matrix,SnapshotCrash)
	$(GO) test -race -run 'Builder|ChainFallback' ./internal/snapshot/

# Regenerate every table in EXPERIMENTS.md from bench_test.go and the
# per-layer benches beside the code they measure (about a minute; not part
# of the tier-1 gate). A figure point is a fixed measurement window, so two
# iterations suffice; the per-operation ablations and layers need the
# default benchtime to average over enough ops.
bench:
	$(GO) test -run xxx -bench 'Figure|WriteBandwidth|PipelinedWrites' -benchtime 2x .
	$(GO) test -run xxx -bench 'Ablation|NodeOpPath|EngineDispatch|BuilderFullPass|Restore' -benchmem . ./internal/core/ ./internal/engine/ ./internal/snapshot/
