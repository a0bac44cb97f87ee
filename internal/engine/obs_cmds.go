package engine

import (
	"strconv"
	"strings"
	"time"

	"memorydb/internal/obs"
	"memorydb/internal/resp"
)

// LATENCY and SLOWLOG: the RESP face of the observability layer. Both
// are keyless reads any node answers regardless of role (the workloop
// whitelists them alongside PING), reporting from the registry the
// owning node attached via SetObs.

func init() {
	register(&Command{Name: "LATENCY", Arity: 1, Flags: FlagReadOnly | FlagFast | FlagLocal, Handler: cmdLatency})
	register(&Command{Name: "SLOWLOG", Arity: 1, Flags: FlagReadOnly | FlagFast | FlagLocal, Handler: cmdSlowlog})
}

var errObsDisabled = resp.Err("ERR latency tracking is disabled on this node")

func usecV(d time.Duration) resp.Value { return resp.Int64(int64(d / time.Microsecond)) }

// cmdLatency: LATENCY [STAGES] | HISTOGRAM <stage> | TRACES [n] | RESET.
// STAGES (the default) returns one row per write-path stage:
// [name, count, p50_usec, p95_usec, p99_usec, p999_usec, max_usec].
// TRACES summarises the n most recent sampled commands (TRACE GET <id>
// has the full tree), one row each:
// [trace_id, cmd, total_usec, queue_usec, exec_usec, commit_usec, shard].
func cmdLatency(e *Engine, argv [][]byte) resp.Value {
	if e.obs == nil {
		return errObsDisabled
	}
	sub := "STAGES"
	if len(argv) >= 2 {
		sub = strings.ToUpper(string(argv[1]))
	}
	switch sub {
	case "STAGES":
		rows := make([]resp.Value, 0, obs.NumStages)
		for s := obs.Stage(0); s < obs.NumStages; s++ {
			h := e.obs.Stage(s)
			q := h.Quantiles()
			rows = append(rows, resp.ArrayV(
				resp.BulkStr(s.String()),
				resp.Int64(int64(h.Count())),
				usecV(q.P50), usecV(q.P95), usecV(q.P99), usecV(q.P999), usecV(q.Max),
			))
		}
		return resp.ArrayV(rows...)
	case "HISTOGRAM":
		if len(argv) != 3 {
			return resp.Err("ERR LATENCY HISTOGRAM requires a stage name")
		}
		s, ok := obs.StageByName(strings.ToLower(string(argv[2])))
		if !ok {
			return resp.Errf("ERR unknown stage '%s'", argv[2])
		}
		var rows []resp.Value
		e.obs.Stage(s).EachBucket(func(upperNanos int64, count uint64) {
			rows = append(rows, resp.ArrayV(
				resp.Int64(upperNanos/int64(time.Microsecond)),
				resp.Int64(int64(count)),
			))
		})
		return resp.ArrayV(rows...)
	case "TRACES":
		n := 16
		if len(argv) >= 3 {
			v, err := strconv.Atoi(string(argv[2]))
			if err != nil || v < 0 {
				return resp.Err("ERR value is not an integer or out of range")
			}
			n = v
		}
		// Rendered from the span collector (no sampler of its own): empty
		// when tracing is off.
		var rows []resp.Value
		if e.trace != nil {
			for _, t := range e.trace.RecentCommands(n) {
				rows = append(rows, resp.ArrayV(
					resp.Int64(int64(t.TraceID)),
					resp.BulkStr(t.Cmd),
					usecV(time.Duration(t.Total)), usecV(time.Duration(t.Queue)), usecV(time.Duration(t.Exec)),
					usecV(time.Duration(max(t.Total-t.Queue-t.Exec, 0))),
					resp.Int64(int64(t.Shard)),
				))
			}
		}
		return resp.ArrayV(rows...)
	case "RESET":
		e.obs.ResetLatency()
		return resp.OK
	}
	return resp.Errf("ERR unknown LATENCY subcommand '%s'", argv[1])
}

// cmdSlowlog: SLOWLOG GET [n] | LEN | RESET | THRESHOLD [usec].
// GET returns entries newest first as
// [id, unix_seconds, total_usec, [args...],
// [queue_usec, exec_usec, commit_usec], shard].
func cmdSlowlog(e *Engine, argv [][]byte) resp.Value {
	if e.obs == nil {
		return errObsDisabled
	}
	sub := "GET"
	if len(argv) >= 2 {
		sub = strings.ToUpper(string(argv[1]))
	}
	sl := e.obs.Slow
	switch sub {
	case "GET":
		n := 10
		if len(argv) >= 3 {
			v, err := strconv.Atoi(string(argv[2]))
			if err != nil || v < 0 {
				return resp.Err("ERR value is not an integer or out of range")
			}
			n = v
		}
		entries := sl.Recent(n)
		rows := make([]resp.Value, 0, len(entries))
		for _, en := range entries {
			rows = append(rows, resp.ArrayV(
				resp.Int64(en.ID),
				resp.Int64(en.At.Unix()),
				usecV(en.Total),
				resp.BulkArray(en.Args...),
				resp.ArrayV(usecV(en.Queue), usecV(en.Exec), usecV(en.Commit)),
				resp.Int64(int64(en.Shard)),
			))
		}
		return resp.ArrayV(rows...)
	case "LEN":
		return resp.Int64(int64(sl.Len()))
	case "RESET":
		sl.Reset()
		return resp.OK
	case "THRESHOLD":
		if len(argv) >= 3 {
			v, err := strconv.ParseInt(string(argv[2]), 10, 64)
			if err != nil {
				return resp.Err("ERR value is not an integer or out of range")
			}
			sl.SetThreshold(time.Duration(v) * time.Microsecond)
			return resp.OK
		}
		return resp.Int64(int64(sl.Threshold() / time.Microsecond))
	}
	return resp.Errf("ERR unknown SLOWLOG subcommand '%s'", argv[1])
}
