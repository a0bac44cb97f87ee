package core

import (
	"errors"
	"sync/atomic"
	"time"

	"memorydb/internal/faultpoint"
	"memorydb/internal/trace"
	"memorydb/internal/tracker"
	"memorydb/internal/txlog"
)

// The sequencer is the issue-side twin of txlog.Replayer: every entry this
// node appends — group-commit flushes, running-checksum injections, lease
// renewals, control records — goes through sequence, and every caller runs
// on the workloop, which therefore owns the sequencer state without a
// lock. A (lease-bounded) append retry holds the workloop, as it should:
// nothing behind it may reach the log first.

// Retry shape for transient log failures: capped exponential backoff with
// full jitter, bounded overall by the leadership lease.
const (
	retryBase = time.Millisecond
	retryMax  = 16 * time.Millisecond
)

// sequence appends e at the node's log tail. It stamps the writer's epoch,
// engine version and committed watermark (so tailing replicas continuously
// learn the primary's ack frontier), retries transient failures, advances
// lastIssued, chains a data payload into the running checksum and — right
// behind it, so the checksum entry is contiguous with the prefix it covers
// — injects the EntryChecksum that payload made due (§7.2.1). A lost append — fenced by
// another writer, or the lease-bounded retry deadline exhausted — is
// counted, a fencing is recorded on the flight ring, and the node demotes
// before the error returns: callers only fail the replies they hold, so
// clients observe the error once the step-down is visible.
func (n *Node) sequence(e txlog.Entry, retried *atomic.Int64) (*txlog.Pending, error) {
	n.mu.Lock()
	e.Epoch = n.epoch
	trk := n.trk
	n.mu.Unlock()
	e.EngineVersion = n.cfg.EngineVersion
	e.Watermark = trk.Committed()

	var p, sum *txlog.Pending
	var err error
	if e.Type == txlog.EntryData {
		// Crashed (and later stopped) or transiently failed at the head of
		// a flush: nothing reached the log, so the buffered mutations can
		// never become durable under this node — a lost append.
		err = n.checkpoint(faultpoint.SiteFlushPre)
	}
	if err == nil {
		p, err = n.startAppendRetry(e, retried)
		if err == nil && e.Type == txlog.EntryData {
			n.runningChecksum = txlog.ChainChecksum(n.runningChecksum, e.Payload)
			n.dataSinceSum++
			if n.cfg.ChecksumEvery > 0 && n.dataSinceSum >= n.cfg.ChecksumEvery {
				sum, err = n.startAppendRetry(txlog.Entry{
					Type:          txlog.EntryChecksum,
					Epoch:         e.Epoch,
					EngineVersion: e.EngineVersion,
					Watermark:     e.Watermark,
					Payload:       txlog.EncodeChecksumPayload(n.runningChecksum),
				}, &n.stats.AppendsRetried)
				if err == nil {
					n.dataSinceSum = 0
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
	if sum != nil {
		n.commitWatermarkAsync(sum, trk)
	}
	if p == nil {
		return nil, err
	}
	// The entry itself landed; a failed checksum injection behind it has
	// already demoted the node, which aborts whatever the caller gates on p.
	return p, nil
}

// commitWatermarkAsync advances the tracker's durable watermark once a
// non-data entry commits, so reads gated at lastIssued are not stuck
// behind control traffic.
func (n *Node) commitWatermarkAsync(p *txlog.Pending, trk *tracker.Tracker) {
	n.onCommit(p, func(err error) {
		// Crash gate before the watermark advances: a kill here leaves
		// the entry durable but every gated reply undelivered — clients
		// time out and must treat the write as ambiguous.
		if err != nil || n.checkpoint(faultpoint.SiteTrackerRelease) != nil {
			return
		}
		n.noteAZHealth(p)
		trk.Commit(p.ID().Seq)
	})
}

// completion is one issued append and what the node does once the log has
// answered for it: err is nil when the entry committed, the log's reason
// when it never will.
type completion struct {
	p    *txlog.Pending
	then func(err error)
}

// completionBacklog sizes the completion FIFO far above what the append
// window lets be in flight at once; should it ever fill, the issuer
// waits in onCommit — a completion is never dropped.
const completionBacklog = 1024

// onCommit queues then behind p on the completion loop.
func (n *Node) onCommit(p *txlog.Pending, then func(err error)) {
	select {
	case n.completions <- completion{p, then}:
	case <-n.stopCtx.Done():
	}
}

// completionLoop is the node's one waiter on the log, the acknowledgement
// side of the sequencer: appends are issued in order and the log commits
// in order, so it waits on each Pending in turn and then runs what its
// issuer queued — stage stamps, the crash gates between quorum and
// release, tracker.Commit, the workloop's flush-on-ack poke. It is node code
// on a node goroutine on purpose: checkpoint parks while the node is
// frozen, which must stall this node's acknowledgements and nothing else —
// run on the log's committer it would stop the log for every other node,
// the successor's election claim included. A log error (the entry was
// truncated from a torn tail, or the log destroyed) means nothing gated on
// the entry may ever be acknowledged: the node steps down, which fails
// every withheld reply.
func (n *Node) completionLoop() {
	defer n.wg.Done()
	for {
		select {
		case c := <-n.completions:
			_, err := c.p.Wait(n.stopCtx)
			if n.stopCtx.Err() != nil {
				return
			}
			if err != nil {
				n.flight.Recordf(trace.EvAlarm, c.p.ID().Seq, "log gave up an issued entry: %v", err)
				n.demote()
			}
			c.then(err)
		case <-n.stopCtx.Done():
			return
		}
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
			n.mu.Lock()
			lease := n.lease
			n.mu.Unlock()
			if lease == nil || !lease.Valid() || n.stopCtx.Err() != nil {
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
