// Command memorydb-server runs a single-shard server speaking RESP.
//
// In -mode=memorydb (default) it provisions an in-process multi-AZ
// transaction log service, an S3 simulator for snapshots, and one primary
// node: every write is durably committed across the simulated AZs before
// it is acknowledged. In -mode=redis it runs the same engine as an OSS
// Redis-style node: writes are acknowledged immediately and durability is
// best-effort.
//
// Try it:
//
//	go run ./cmd/memorydb-server -addr 127.0.0.1:6379
//	go run ./cmd/memorydb-cli -addr 127.0.0.1:6379 SET hello world
//
// Observability knobs (flags, with env fallbacks):
//
//	-metrics-addr / MEMORYDB_METRICS_ADDR  — serve Prometheus text on
//	    http://<addr>/metrics (empty = disabled)
//	-slowlog-threshold / MEMORYDB_SLOWLOG_THRESHOLD — end-to-end latency
//	    above which a command is recorded in the slowlog
//	-trace-sample / MEMORYDB_TRACE_SAMPLE — fraction of commands traced:
//	    drives both the per-command slowlog tracer and the distributed
//	    span collector behind TRACE GET/RECENT (0 disables sampling;
//	    span collection stays armed so TRACE RESET + live sampling knobs
//	    keep working)
//	-flight-events / MEMORYDB_FLIGHT_EVENTS — per-node flight-recorder
//	    ring size (0 = 512); DEBUG FLIGHT DUMP renders it
//	pprof — when -metrics-addr is set, the standard /debug/pprof/
//	    handlers (profile, heap, goroutine, trace) share its mux
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"time"

	"memorydb/internal/baseline"
	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/obs"
	"memorydb/internal/s3"
	"memorydb/internal/server"
	"memorydb/internal/snapshot"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6379", "listen address")
	mode := flag.String("mode", "memorydb", "memorydb or redis")
	commitLat := flag.Duration("commit-latency", 2*time.Millisecond, "base multi-AZ commit latency")
	metricsAddr := flag.String("metrics-addr", os.Getenv("MEMORYDB_METRICS_ADDR"),
		"serve Prometheus metrics on this address (empty = disabled)")
	slowlogThresh := flag.Duration("slowlog-threshold", envDuration("MEMORYDB_SLOWLOG_THRESHOLD", 10*time.Millisecond),
		"record commands slower than this in the slowlog")
	traceSample := flag.Float64("trace-sample", envFloat("MEMORYDB_TRACE_SAMPLE", 0),
		"fraction of commands to trace (0 disables sampling)")
	flightEvents := flag.Int("flight-events", envInt("MEMORYDB_FLIGHT_EVENTS", 0),
		"flight-recorder ring size per node (0 = 512)")
	segmentBytes := flag.Int("segment-bytes", envInt("MEMORYDB_SEGMENT_BYTES", 0),
		"rotate transaction-log segments at this payload size (0 = 1MiB default)")
	trimInterval := flag.Duration("trim-interval", envDuration("MEMORYDB_TRIM_INTERVAL", 0),
		"verify new snapshots and trim the log behind them at this cadence; also starts the snapshot builder (0 = disabled)")
	deltaInterval := flag.Int("delta-interval", envInt("MEMORYDB_DELTA_INTERVAL", 0),
		"snapshot builder: emit an incremental delta snapshot every N log entries (0 = disabled unless -trim-interval is set, then 512)")
	compactEvery := flag.Int("compact-every", envInt("MEMORYDB_COMPACT_EVERY", 8),
		"snapshot builder: compact the full+delta chain into a new full snapshot after N deltas")
	replicaReadTimeout := flag.Duration("replica-read-timeout", envDuration("MEMORYDB_REPLICA_READ_TIMEOUT", 0),
		"max time a linearizable replica read waits for its freshness proof before degrading (0 = 50ms default)")
	flag.Parse()

	// One shared metrics registry spans the front-end (read_parse,
	// reply_write), the node's workloop and commit pipeline, and the
	// per-AZ log replicas — so /metrics and INFO see the whole path.
	metrics := obs.New(obs.Options{SlowlogThreshold: *slowlogThresh})
	// The distributed span collector and the log service's flight ring are
	// shared by every component in the process, so one sampled command's
	// spans — front-end, workloop stages, log quorum acks — assemble into
	// a single tree behind TRACE GET (and its LATENCY TRACES summary):
	// -trace-sample drives the one sampling coin.
	collector := trace.NewCollector(*traceSample, 1, 0)

	var backend server.Backend
	switch *mode {
	case "memorydb":
		faults, err := faultRegistryFromEnv()
		if err != nil {
			log.Fatalf("MEMORYDB_FAULTPOINTS: %v", err)
		}
		svc := txlog.NewService(txlog.Config{
			Clock:         clock.NewReal(),
			CommitLatency: fixedOr(*commitLat),
			SegmentBytes:  *segmentBytes,
			Faults:        faults,
			Trace:         collector,
			Flight:        trace.NewFlight("txlog", *flightEvents),
		})
		logHandle, err := svc.CreateLog("shard-0")
		if err != nil {
			log.Fatalf("create log: %v", err)
		}
		for _, az := range svc.AZs() {
			metrics.RegisterHistogram("az_append", fmt.Sprintf("az=%q", az.Name()), az.AckLatency())
		}
		snaps := snapshot.NewManager(s3.New(s3.WithFaults(faults)), "snapshots")
		node, err := core.NewNode(core.Config{
			NodeID:             "node-0",
			ShardID:            "shard-0",
			Log:                logHandle,
			Snapshots:          snaps,
			Faults:             faults,
			Obs:                metrics,
			ReplicaReadTimeout: *replicaReadTimeout,
			Trace:              collector,
			FlightEvents:       *flightEvents,
		})
		if err != nil {
			log.Fatalf("create node: %v", err)
		}
		node.Start()
		defer node.Stop()
		for node.Role() != election.RolePrimary {
			time.Sleep(5 * time.Millisecond)
		}
		// Forkless snapshots: a log-tailing builder materializes the
		// keyspace off the critical path and streams delta snapshots to
		// S3 — the engine never forks (contrast Figure 6's BGSave
		// collapse). Compaction bounds restore chains at -compact-every.
		// Trimming needs snapshots to trim behind, so either flag starts it.
		if *deltaInterval > 0 || *trimInterval > 0 {
			builder := &snapshot.Builder{
				Manager: snaps, Log: logHandle, ShardID: "shard-0",
				EngineVersion: 1,
				DeltaInterval: uint64(*deltaInterval),
				CompactEvery:  *compactEvery,
				Faults:        faults,
				Obs:           metrics,
				Flight:        node.FlightRecorder(),
			}
			sctx, scancel := context.WithCancel(context.Background())
			defer scancel()
			go builder.Run(sctx)
			fmt.Printf("forkless snapshot builder running (-delta-interval %d, -compact-every %d; 0 = default)\n",
				*deltaInterval, *compactEvery)
			// Bounded durable log: at -trim-interval cadence the trim
			// coordinator rehearses a restore from each new snapshot tip and
			// drops every sealed segment the verified chain's base covers.
			if *trimInterval > 0 {
				trimmer := &snapshot.Trimmer{Manager: snaps, Log: logHandle, ShardID: "shard-0", Interval: *trimInterval}
				go trimmer.Run(sctx)
				fmt.Printf("log trim coordinator running every %v\n", *trimInterval)
			}
		}
		backend = server.NodeBackend{Node: node}
	case "redis":
		node := baseline.NewPrimary(baseline.Config{NodeID: "redis-0"})
		defer node.Stop()
		backend = server.BaselineBackend{Node: node}
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	srv := server.New(server.Config{Addr: *addr, Backend: backend, Obs: metrics, Trace: collector})
	if err := srv.Start(); err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	fmt.Printf("%s-mode server listening on %s\n", *mode, srv.Addr())

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(metrics))
		// Standard pprof surface on the same mux: CPU/heap/goroutine
		// profiles and the runtime execution tracer, for production
		// debugging next to the metrics scrape.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		msrv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
		defer msrv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", *metricsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("shutting down")
}

// faultRegistryFromEnv builds the process's one fault registry from the
// MEMORYDB_FAULTPOINTS spec ("site=kind[@N|:prob]" clauses separated by
// ';' — see faultpoint.Parse) seeded by MEMORYDB_CRASH_SEED. The log
// service, the node, the snapshot builder and the S3 store all consult
// it, so e.g. 'txlog.az-1.ack=error:1' takes a zone down. Returns nil
// (faults disabled) when the spec is unset.
func faultRegistryFromEnv() (*faultpoint.Registry, error) {
	spec := os.Getenv("MEMORYDB_FAULTPOINTS")
	if spec == "" {
		return nil, nil
	}
	var seed int64 = 1
	if s := os.Getenv("MEMORYDB_CRASH_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("MEMORYDB_CRASH_SEED: %w", err)
		}
		seed = v
	}
	reg, err := faultpoint.Parse(spec, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("fault injection armed: %s (seed %d)\n", spec, seed)
	return reg, nil
}

func envDuration(key string, def time.Duration) time.Duration {
	s := os.Getenv(key)
	if s == "" {
		return def
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		log.Fatalf("%s: %v", key, err)
	}
	return d
}

func envInt(key string, def int) int {
	s := os.Getenv(key)
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		log.Fatalf("%s: %v", key, err)
	}
	return v
}

func envFloat(key string, def float64) float64 {
	s := os.Getenv(key)
	if s == "" {
		return def
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		log.Fatalf("%s: %v", key, err)
	}
	return v
}

func fixedOr(d time.Duration) netsim.LatencyModel {
	if d <= 0 {
		return netsim.DefaultCommitLatency()
	}
	return netsim.Fixed(d)
}
