// Command memorydb-server runs a MemoryDB cluster behind one RESP
// endpoint.
//
// In -mode=memorydb (default) it provisions an in-process multi-AZ
// transaction log service, an S3 simulator for snapshots, -shards shards
// of one primary and -replicas replicas each, placed across the log's
// AZs, one forkless snapshot builder per shard and the monitoring
// service. A write is acknowledged once the simulated AZs commit it. The
// endpoint speaks Redis Cluster over 16384 slots: it routes a command to
// the shard owning its key, pipelines what one primary can take, and
// answers CROSSSLOT to keys in different slots (hash tags co-locate
// them). -mode=redis provisions the same cluster on OSS Redis's release
// rule (cluster.Config.AckOnExecute): a write is acknowledged once it
// executes, before its log entry commits, so a primary that dies in
// between loses it.
//
//	go run ./cmd/memorydb-server -addr 127.0.0.1:6379 -shards 3
//	go run ./cmd/memorydb-cli -addr 127.0.0.1:6379 SET hello world
//
// -metrics-addr serves Prometheus text on /metrics and the standard
// /debug/pprof/ handlers. -trace-sample drives the slowlog tracer and
// the span collector behind TRACE GET/RECENT. DEBUG FLIGHT DUMP renders
// the cluster's merged flight timeline: every node's ring, the log's, the
// Monitor's and the snapshot pipeline's. MEMORYDB_FAULTPOINTS (grammar in
// faultpoint.Parse), seeded by MEMORYDB_CRASH_SEED, arms one registry for
// the log service, S3 and the builders, and each node's own registry, so
// 'txlog.az-1.ack=error:1' takes a zone down.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/cluster"
	"memorydb/internal/engine"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/obs"
	"memorydb/internal/s3"
	"memorydb/internal/server"
	"memorydb/internal/snapshot"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// options is what the process runs from: its flags and the fault
// injection environment.
type options struct {
	addr, mode, metricsAddr     string
	commitLatency, slowlog      time.Duration
	traceSample                 float64
	shards, replicas            int
	segmentBytes                int
	deltaInterval, compactEvery int
	faultSpec                   string
	faultSeed                   int64
}

// defineFlags registers the flags, which flag.Parse fills in, and reads
// the fault-injection spec ("site=kind[@N|:prob]" clauses separated by
// ';', see faultpoint.Parse) from MEMORYDB_FAULTPOINTS and its seed from
// MEMORYDB_CRASH_SEED.
func defineFlags() *options {
	o := &options{faultSpec: os.Getenv("MEMORYDB_FAULTPOINTS")}
	flag.StringVar(&o.addr, "addr", "127.0.0.1:6379", "listen address")
	flag.StringVar(&o.mode, "mode", "memorydb", "memorydb or redis")
	flag.DurationVar(&o.commitLatency, "commit-latency", 2*time.Millisecond, "base multi-AZ commit latency")
	flag.StringVar(&o.metricsAddr, "metrics-addr", os.Getenv("MEMORYDB_METRICS_ADDR"),
		"serve Prometheus metrics on this address (empty = disabled)")
	flag.DurationVar(&o.slowlog, "slowlog-threshold", env("MEMORYDB_SLOWLOG_THRESHOLD", 10*time.Millisecond, time.ParseDuration),
		"record commands slower than this in the slowlog")
	flag.Float64Var(&o.traceSample, "trace-sample", env("MEMORYDB_TRACE_SAMPLE", 0, parseFloat),
		"fraction of commands to trace (0 disables sampling)")
	flag.IntVar(&o.shards, "shards", 1, "number of shards")
	flag.IntVar(&o.replicas, "replicas", 1, "replicas per shard")
	flag.IntVar(&o.segmentBytes, "segment-bytes", env("MEMORYDB_SEGMENT_BYTES", 0, strconv.Atoi),
		"rotate transaction-log segments at this payload size (0 = 1MiB default)")
	flag.IntVar(&o.deltaInterval, "delta-interval", env("MEMORYDB_DELTA_INTERVAL", 512, strconv.Atoi),
		"snapshot builders: emit an incremental delta snapshot every N log entries, and trim the log behind each verified full (0 = no snapshots)")
	flag.IntVar(&o.compactEvery, "compact-every", env("MEMORYDB_COMPACT_EVERY", 8, strconv.Atoi),
		"snapshot builders: compact the full+delta chain into a new full snapshot after N deltas")
	o.faultSeed = env("MEMORYDB_CRASH_SEED", 1, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
	return o
}

func main() {
	o := defineFlags()
	flag.Parse()

	if o.mode != "memorydb" && o.mode != "redis" {
		log.Fatalf("unknown mode %q", o.mode)
	}
	d, err := provision(*o)
	if err != nil {
		log.Fatal(err)
	}
	defer d.close()
	fmt.Printf("%s-mode cluster of %d shard(s) × %d replica(s) listening on %s\n", o.mode, o.shards, o.replicas, d.srv.Addr())
	if o.faultSpec != "" {
		fmt.Printf("fault injection armed: %s (seed %d)\n", o.faultSpec, o.faultSeed)
	}

	if o.metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(d.metrics))
		// Standard pprof surface on the same mux (net/http/pprof
		// registers it on the default mux): CPU/heap/goroutine profiles
		// and the runtime execution tracer, for production debugging
		// next to the metrics scrape.
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		msrv := &http.Server{Addr: o.metricsAddr, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
		defer msrv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", o.metricsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("shutting down")
}

// deployment is a running process: the cluster, its
// control plane (one snapshot builder per shard and the Monitor) and the
// endpoint in front of it.
type deployment struct {
	cluster *cluster.Cluster
	monitor *cluster.Monitor
	metrics *obs.Metrics
	srv     *server.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// provision starts a deployment once every shard has a primary.
func provision(o options) (*deployment, error) {
	// One metrics registry spans the front-end (read_parse, reply_write),
	// every node's workloop and commit pipeline, the builders and the
	// per-AZ log replicas, so /metrics and INFO see the whole path. The
	// span collector is shared the same way, so one sampled command's
	// spans assemble into a single tree behind TRACE GET.
	metrics := obs.New(obs.Options{SlowlogThreshold: o.slowlog})
	collector := trace.NewCollector(o.traceSample, 1, 0)
	// The process's own registry, for the log service, S3 and the
	// builders, stays nil (faults disabled, one nil check per site) when
	// no spec is set.
	var faults *faultpoint.Registry
	if o.faultSpec != "" {
		var err error
		if faults, err = faultpoint.Parse(o.faultSpec, o.faultSeed); err != nil {
			return nil, fmt.Errorf("MEMORYDB_FAULTPOINTS: %w", err)
		}
	}
	svc := txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: fixedOr(o.commitLatency),
		SegmentBytes:  o.segmentBytes,
		Faults:        faults,
		Trace:         collector,
		Flight:        trace.NewFlight("txlog", 0),
	})
	for _, az := range svc.AZs() {
		metrics.RegisterHistogram("az_append", fmt.Sprintf("az=%q", az.Name()), az.AckLatency())
	}
	snaps := snapshot.NewManager(s3.New(s3.WithFaults(faults)), "snapshots")
	c, err := cluster.New(cluster.Config{
		NumShards:        o.shards,
		ReplicasPerShard: o.replicas,
		LogService:       svc,
		Snapshots:        snaps,
		FaultSpec:        o.faultSpec,
		FaultSeed:        o.faultSeed,
		Obs:              metrics,
		Trace:            collector,
		AckOnExecute:     o.mode == "redis",
	})
	if err != nil {
		return nil, fmt.Errorf("provision: %w", err)
	}
	for _, sh := range c.Shards() {
		if _, err := sh.WaitForPrimary(c.Clock(), 10*time.Second); err != nil {
			c.Stop()
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &deployment{cluster: c, monitor: &cluster.Monitor{Cluster: c, Interval: 5 * time.Second}, metrics: metrics, cancel: cancel}
	d.wg.Add(1)
	go func() { defer d.wg.Done(); d.monitor.Run(ctx) }()
	// Forkless snapshots: a log-tailing builder per shard materializes
	// the keyspace off the critical path and streams delta snapshots to
	// S3; the engine never forks (contrast Figure 6's BGSave collapse).
	// The pass after each full rehearses a restore from it and trims the
	// log behind it.
	for _, sh := range c.Shards() {
		if o.deltaInterval <= 0 {
			break
		}
		b := &snapshot.Builder{
			Manager: snaps, Log: sh.Log, ShardID: sh.ID,
			EngineVersion: engine.Version,
			DeltaInterval: uint64(o.deltaInterval),
			CompactEvery:  o.compactEvery,
			Faults:        faults,
			Obs:           metrics,
		}
		d.wg.Add(1)
		go func() { defer d.wg.Done(); b.Run(ctx) }()
	}
	d.srv = server.New(server.Config{Addr: o.addr, Backend: server.ClusterBackend{Cluster: c}, Obs: metrics, Trace: collector})
	if err := d.srv.Start(); err != nil {
		d.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	return d, nil
}

// close stops the endpoint, then the control plane, then every node.
func (d *deployment) close() {
	if d.srv != nil {
		d.srv.Close()
	}
	d.cancel()
	d.wg.Wait()
	d.cluster.Stop()
}

// env parses the environment's value for key, or answers def when key
// is unset.
func env[T any](key string, def T, parse func(string) (T, error)) T {
	s := os.Getenv(key)
	if s == "" {
		return def
	}
	v, err := parse(s)
	if err != nil {
		log.Fatalf("%s: %v", key, err)
	}
	return v
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func fixedOr(d time.Duration) netsim.LatencyModel {
	if d <= 0 {
		return netsim.DefaultCommitLatency()
	}
	return netsim.Fixed(d)
}
