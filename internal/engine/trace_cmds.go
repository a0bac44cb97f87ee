package engine

import (
	"strconv"
	"strings"

	"memorydb/internal/resp"
	"memorydb/internal/trace"
)

// TRACE and DEBUG FLIGHT: the RESP face of the distributed-tracing
// layer. Keyless reads any node answers regardless of role (the
// workloop whitelists them alongside LATENCY/SLOWLOG), reporting from
// the collector / flight ring the owning node attached via
// SetTrace/SetFlight.

func init() {
	register(&Command{Name: "TRACE", Arity: 1, Flags: FlagReadOnly | FlagFast | FlagLocal, Handler: cmdTrace})
	register(&Command{Name: "DEBUG", Arity: 1, Flags: FlagReadOnly | FlagFast | FlagLocal, Handler: cmdDebug})
}

var errTraceDisabled = resp.Err("ERR tracing is disabled on this node")

// spanRow renders one span as
// [span_id, parent_id, name, node, az, start_usec, dur_usec].
func spanRow(s trace.Span) resp.Value {
	return resp.ArrayV(
		resp.Int64(int64(s.SpanID)),
		resp.Int64(int64(s.ParentID)),
		resp.BulkStr(s.Name),
		resp.BulkStr(s.Node),
		resp.Int64(int64(s.AZ)),
		resp.Int64(s.Start/1000),
		resp.Int64(s.Dur()/1000),
	)
}

// cmdTrace: TRACE GET <trace_id> | RECENT [n] | RESET.
// GET returns the assembled span tree (parents before children where
// starts tie), one spanRow per span.
func cmdTrace(e *Engine, argv [][]byte) resp.Value {
	if e.trace == nil {
		return errTraceDisabled
	}
	sub := "RECENT"
	if len(argv) >= 2 {
		sub = strings.ToUpper(string(argv[1]))
	}
	switch sub {
	case "GET":
		if len(argv) != 3 {
			return resp.Err("ERR TRACE GET requires a trace id")
		}
		id, err := strconv.ParseUint(string(argv[2]), 10, 64)
		if err != nil {
			return resp.Err("ERR value is not an integer or out of range")
		}
		spans := e.trace.Trace(id)
		rows := make([]resp.Value, 0, len(spans))
		for _, s := range spans {
			rows = append(rows, spanRow(s))
		}
		return resp.ArrayV(rows...)
	case "RECENT":
		n := 16
		if len(argv) >= 3 {
			v, err := strconv.Atoi(string(argv[2]))
			if err != nil || v < 0 {
				return resp.Err("ERR value is not an integer or out of range")
			}
			n = v
		}
		ids := e.trace.RecentTraces(n)
		rows := make([]resp.Value, 0, len(ids))
		for _, id := range ids {
			rows = append(rows, resp.Int64(int64(id)))
		}
		return resp.ArrayV(rows...)
	case "RESET":
		e.trace.Reset()
		return resp.OK
	}
	return resp.Errf("ERR unknown TRACE subcommand '%s'", argv[1])
}

// cmdDebug: DEBUG FLIGHT DUMP | FLIGHT TOTAL on this node's flight ring
// (the cluster endpoint answers it from every ring it merges).
func cmdDebug(e *Engine, argv [][]byte) resp.Value {
	if e.flight == nil {
		return resp.Err("ERR flight recorder is disabled on this node")
	}
	return DebugFlight(argv, e.flight.Events(), e.flight.Total())
}

// DebugFlight answers DEBUG FLIGHT DUMP | FLIGHT TOTAL: DUMP renders
// events as a timeline, TOTAL answers total, the events recorded.
func DebugFlight(argv [][]byte, events []trace.Event, total uint64) resp.Value {
	if len(argv) < 2 || strings.ToUpper(string(argv[1])) != "FLIGHT" {
		return resp.Err("ERR unknown DEBUG subcommand (supported: FLIGHT DUMP|TOTAL)")
	}
	sub := "DUMP"
	if len(argv) >= 3 {
		sub = strings.ToUpper(string(argv[2]))
	}
	switch sub {
	case "DUMP":
		return resp.BulkStr(trace.FormatTimeline(events))
	case "TOTAL":
		return resp.Int64(int64(total))
	}
	return resp.Errf("ERR unknown DEBUG FLIGHT subcommand '%s'", argv[2])
}
