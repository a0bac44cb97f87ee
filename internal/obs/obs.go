// Package obs is the dependency-free observability substrate: lock-free
// log-linear latency histograms, per-command write-path stage spans, a
// slowlog, a bounded alarm ring, and Prometheus
// text exposition over stdlib net/http. It imports nothing from the
// rest of the tree so every layer (server, core, txlog, snapshot,
// cluster, bench) can record into one shared Metrics instance.
package obs

import "time"

// Stage identifies one hop of the linearizable write path, in pipeline
// order. A command's end-to-end latency decomposes as
//
//	read_parse → queue_wait → execute → batch_wait → append
//	           → quorum_wait → tracker_release → reply_write
//
// where read_parse/reply_write are measured by the server front-end
// around the node, batch_wait/append/quorum_wait are per group-commit
// batch (each buffered command observes its own batch residency, the
// batch observes one append and one quorum wait), and e2e spans
// submit-to-reply inside the node.
type Stage int

const (
	// StageReadParse: server reading+parsing the RESP command off the
	// socket. Includes wire idle time on keepalive connections, so its
	// tail reflects client think time, not server work.
	StageReadParse Stage = iota
	// StageQueueWait: submit-to-dequeue wait in the workloop task queue.
	StageQueueWait
	// StageExecute: engine execution inside the workloop.
	StageExecute
	// StageBatchWait: a mutation's residency in the group-commit buffer
	// between engine execution and the batch starting its append.
	StageBatchWait
	// StageAppend: conditional-append submission to the transaction log
	// (once per batch).
	StageAppend
	// StageQuorumWait: append-submitted to 2-of-3 AZ quorum ack (once
	// per batch).
	StageQuorumWait
	// StageTrackerRelease: quorum ack to the tracker delivering the
	// gated reply.
	StageTrackerRelease
	// StageReplicaReadWait: a linearizable replica read parked in the
	// ReadGate between capturing the committed tail and the replica's
	// applied position covering it (zero on the primary path).
	StageReplicaReadWait
	// StageReplyWrite: server serializing+flushing the reply.
	StageReplyWrite
	// StageE2E: node submit to reply delivery (queue+execute+commit).
	StageE2E
	// NumStages sizes per-stage arrays.
	NumStages
)

var stageNames = [NumStages]string{
	"read_parse",
	"queue_wait",
	"execute",
	"batch_wait",
	"append",
	"quorum_wait",
	"tracker_release",
	"replica_read_wait",
	"reply_write",
	"e2e",
}

// String returns the stage's snake_case name.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// StageByName resolves a snake_case stage name; ok is false if unknown.
func StageByName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// base anchors the process-local monotonic clock. time.Since reads the
// monotonic component of base, so Now() is immune to wall-clock steps
// and allocation-free.
var base = time.Now()

// Now returns monotonic nanoseconds since process start. Stage stamps
// are differences of Now() values; zero means "not stamped".
func Now() int64 {
	n := int64(time.Since(base))
	if n == 0 {
		n = 1
	}
	return n
}
