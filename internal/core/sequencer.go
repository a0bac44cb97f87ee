package core

import (
	"errors"
	"slices"
	"sync/atomic"
	"time"

	"memorydb/internal/faultpoint"
	"memorydb/internal/obs"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// The sequencer is the issue-side twin of txlog.Replayer: every entry this
// node appends — group-commit flushes, running-checksum injections, lease
// renewals, control records — goes through sequence, and every caller runs
// on the workloop, which therefore owns the sequencer state, and the FIFO
// of issued appends it waits on, without a lock. A (lease-bounded) append
// retry holds the workloop, as it should: nothing behind it may reach the
// log first. It still answers for the appends that committed before it.

// Retry shape for transient log failures: capped exponential backoff with
// full jitter, bounded overall by the leadership lease.
const (
	retryBase = time.Millisecond
	retryMax  = 16 * time.Millisecond
)

// sequence appends e at the node's log tail and puts it, as entry, on the
// FIFO of issued appends. It stamps the writer's epoch, engine version and
// durable watermark (so tailing replicas continuously learn the primary's
// ack frontier), retries transient failures, advances lastIssued, chains a
// data payload into the running checksum and — right behind it, so the
// checksum entry is contiguous with the prefix it covers — injects the
// EntryChecksum that payload made due (§7.2.1). A lost append — fenced by
// another writer, or the lease-bounded retry deadline exhausted — is
// counted, a fencing is recorded on the flight ring, and the node demotes
// before the error returns: callers only fail the replies they hold, so
// clients observe the error once the step-down is visible.
func (n *Node) sequence(e txlog.Entry, retried *atomic.Int64, entry *issuedEntry) error {
	e.Epoch = n.Epoch()
	e.EngineVersion = n.cfg.EngineVersion
	e.Watermark = n.durable

	var err error
	if e.Type == txlog.EntryData {
		// Crashed (and later stopped) or transiently failed at the head of
		// a flush: nothing reached the log, so the buffered mutations can
		// never become durable under this node — a lost append.
		err = n.checkpoint(faultpoint.SiteFlushPre)
	}
	if err == nil {
		entry.p, err = n.startAppendRetry(e, retried)
	}
	if err == nil {
		n.issue(entry)
		if e.Type == txlog.EntryData {
			n.runningChecksum = txlog.ChainChecksum(n.runningChecksum, e.Payload)
			n.dataSinceSum++
			if n.cfg.ChecksumEvery > 0 && n.dataSinceSum >= n.cfg.ChecksumEvery {
				var sum *txlog.Pending
				sum, err = n.startAppendRetry(txlog.Entry{
					Type:          txlog.EntryChecksum,
					Epoch:         e.Epoch,
					EngineVersion: e.EngineVersion,
					Watermark:     e.Watermark,
					Payload:       txlog.EncodeChecksumPayload(n.runningChecksum),
				}, &n.stats.AppendsRetried)
				if err == nil {
					n.dataSinceSum = 0
					n.issue(&issuedEntry{p: sum})
				}
			}
		}
	}

	if err != nil {
		n.stats.AppendsFailed.Add(1)
		if errors.Is(err, txlog.ErrConditionFailed) {
			n.flight.Recordf(trace.EvFencing, e.Epoch, "%s append fenced by newer writer", e.Type)
		}
		n.demote()
	}
	if entry.p == nil {
		return err
	}
	// The entry itself landed; a failed checksum injection behind it has
	// already demoted the node, which failed what the entry holds.
	return nil
}

// issuedEntry is one append on the FIFO of issued appends, from issue
// until the log answers for it, and the holder of the replies that answer
// releases: a data entry's writes, and the reads gated on any entry.
type issuedEntry struct {
	p    *txlog.Pending
	data bool // a group-commit flush: it passes the core.flush.post gate
	// records counts a data entry's mutations; writes holds those whose
	// replies it withholds, all of them but under the Redis rule.
	records uint32
	writes  []*task // in execution order
	reads   []*task // reads that observed one of them, or gated on everything
	// control, set by AppendControl, hears the log's answer.
	control chan<- error
	// owner is the first traced write's span context. The append and quorum
	// intervals are shared by every reply in the batch, so one trace
	// records them, and the entry carries that trace's context into the log
	// so per-AZ acks and remote replica applies attach to the same tree.
	// appendSpan is allocated up front — it must be on the entry before the
	// append is issued, but the span itself is only emitted once the append
	// returns, at appendDone (obs.Now nanos, 0 = not taken).
	owner      trace.SpanContext
	appendSpan uint64
	appendDone int64
}

// issue puts e, whose append was just issued, at the tail of the FIFO. The
// workloop waits on the head's Done beside its tasks and timers.
func (n *Node) issue(e *issuedEntry) {
	n.issued = append(n.issued, e)
	n.entries++
}

// runCompleted is the acknowledgement side of the sequencer: appends are
// issued in order and the log commits in order, so it takes every head of
// the FIFO the log has answered for, in issue order, and answers for it. It
// is node code on the node's goroutine on purpose: checkpoint parks while
// the node is frozen, which must stall this node's acknowledgements and
// nothing else — run in the log's commit round it would stop the log for
// every other node, the successor's election claim included. A log error
// (the entry was truncated from a torn tail, or the log destroyed) means
// nothing gated on the entry may ever be acknowledged: the node steps
// down, which fails every withheld reply, the entry's own included.
func (n *Node) runCompleted() {
	for len(n.issued) > 0 {
		e := n.issued[0]
		select {
		case <-e.p.Done():
		default:
			return
		}
		_, err := e.p.Wait(n.stopCtx)
		if n.stopCtx.Err() != nil {
			return
		}
		if err != nil {
			n.flight.Recordf(trace.EvAlarm, e.p.ID().Seq, "log gave up an issued entry: %v", err)
			n.demote()
		}
		n.issued = slices.Delete(n.issued, 0, 1)
		n.answer(e, err)
	}
}

// answer acts on the log's answer for e, the head just taken off the FIFO:
// err is nil when the entry committed. A committed entry advances the
// durable watermark and releases every reply it holds; between quorum and
// release lie the crash gates of the committed-but-unacknowledged window.
func (n *Node) answer(e *issuedEntry, err error) {
	if err == nil {
		var ackAt int64
		if e.appendDone != 0 {
			ackAt = obs.Now()
			// Child of the append span, sibling of the per-AZ acks the log
			// service emitted for the same entry.
			n.stage(obs.StageQuorumWait, trace.SpanContext{TraceID: e.owner.TraceID, SpanID: e.appendSpan}, 0, e.appendDone, ackAt)
		}
		// A kill at either gate leaves the entry quorum-durable with no
		// reply ever delivered — the harness's "durable yet
		// unacknowledged" case. A control entry's waiter passes neither.
		if (e.data && n.postCommitGate(faultpoint.SiteFlushPost) != nil) ||
			(e.control == nil && n.postCommitGate(faultpoint.SiteReplyRelease) != nil) {
			return
		}
		n.noteAZHealth(e.p)
		// An entry from a lost leadership may be answered after the claim
		// that set the watermark.
		n.durable = max(n.durable, e.p.ID().Seq)
		for _, w := range e.writes {
			if ackAt != 0 {
				n.stage(obs.StageTrackerRelease, w.tr.ctx(), 0, ackAt, obs.Now())
			}
			n.reply(w, w.val)
		}
		for _, r := range e.reads {
			n.reply(r, r.val)
		}
		n.hazards.shed(n.unanswered())
	}
	if e.control != nil {
		e.control <- err
	}
}

// startAppend wraps Log.StartAppend with the node-level partition check
// and the pre/post crash gates. A crash between assignment and return
// models the nastiest case: the log owns a durable entry the dead node
// never learned the ID of.
func (n *Node) startAppend(after txlog.EntryID, e txlog.Entry) (*txlog.Pending, error) {
	if err := n.checkpoint(faultpoint.SiteAppendPre); err != nil {
		return nil, err
	}
	// The one counted pass through node.partition: a standing Error is the
	// partition itself; a one-shot or probabilistic one fails this append.
	if n.cfg.Faults.Hit(faultpoint.SiteNodePartition).Kind == faultpoint.Error {
		return nil, txlog.ErrUnavailable
	}
	p, err := n.cfg.Log.StartAppend(after, e)
	if err != nil {
		return nil, err
	}
	if err := n.checkpoint(faultpoint.SiteAppendPost); err != nil {
		return nil, err
	}
	return p, nil
}

// startAppendRetry is startAppend after lastIssued with the
// transient-failure retry discipline (§4.1.3): a transient error (service
// blip, below-quorum AZ set, partition) leaves the log position unchanged,
// so the identical append is retried under capped exponential backoff with
// full jitter until it lands — advancing lastIssued — the log fences us
// (fatal — returned immediately), or the leadership lease runs out. The
// lease is the natural deadline: renewals are workloop tasks, and while the
// workloop blocks here the lease cannot extend, so exhaustion and
// self-demotion coincide exactly as the paper prescribes. retried counts
// retry attempts into Stats.
func (n *Node) startAppendRetry(e txlog.Entry, retried *atomic.Int64) (*txlog.Pending, error) {
	p, err := n.startAppend(n.lastIssued, e)
	if err != nil && txlog.IsTransient(err) {
		bo := n.retryPol.New()
		for err != nil && txlog.IsTransient(err) {
			// Answer for what committed before the failure: a reply whose
			// entry is durable must not wait out the outage.
			n.runCompleted()
			if n.lease == nil || !n.lease.Valid() || n.stopCtx.Err() != nil {
				break
			}
			retried.Add(1)
			bo.Sleep()
			p, err = n.startAppend(n.lastIssued, e)
		}
		// Backoff sleeps are time the primary spent unable to commit:
		// degraded but available (replies withheld, no errors surfaced).
		if ms := bo.Slept().Milliseconds(); ms > 0 {
			n.stats.DegradedMillis.Add(ms)
		}
	}
	if err != nil {
		return nil, err
	}
	n.lastIssued = p.ID()
	return p, nil
}
