// Package txlog implements the internal durable transaction log service
// MemoryDB offloads durability to (paper §3). The service hosts one log per
// shard. Each log offers the conditional-append API the paper builds
// leader election and fencing on: every entry has a unique identifier and
// an append must name the identifier of the entry it intends to follow;
// appends are acknowledged only once durably committed to a quorum of
// simulated Availability Zones.
//
// The real AWS service is an existing, battle-tested internally replicated
// system; MemoryDB consumes only its API surface. We model its interior
// just deeply enough to reproduce its fault envelope: every log is copied
// to AZCount simulated zone replicas (AZReplica), each with its own
// latency draw and its own fault site (down, flaky, slow). An append is
// accepted only when a quorum of zones acknowledges it — below quorum the
// service is unavailable and appends/reads fail with ErrUnavailable — and
// an accepted entry always commits after the quorum latency (internal
// reliability). A whole-service outage is the txlog.unavailable site, and
// a node's partition from the service is the node's own node.partition
// site: both sit at the client boundary, exactly where MemoryDB observes
// them.
package txlog

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/trace"
)

// EntryID uniquely identifies a log entry. Seq 0 is the sentinel "before
// the first entry": appending with After == ZeroID targets an empty log.
type EntryID struct {
	Seq uint64
}

// ZeroID is the position before the first entry.
var ZeroID = EntryID{}

// Less orders entry IDs.
func (id EntryID) Less(o EntryID) bool { return id.Seq < o.Seq }

// String renders the ID for logs and errors.
func (id EntryID) String() string { return fmt.Sprintf("e%d", id.Seq) }

// EntryType tags the meaning of an entry's payload.
type EntryType uint8

// Entry types used by MemoryDB atop the log.
const (
	// EntryData carries a chunk of the intercepted replication stream
	// (RESP-encoded effect commands).
	EntryData EntryType = iota
	// EntryLeadership is a leader-claim record (§4.1.1).
	EntryLeadership
	// EntryLease is a periodic lease renewal / heartbeat (§4.1.3, §4.2).
	EntryLease
	// EntryChecksum is an injected running checksum of the log prefix,
	// used by snapshot verification (§7.2.1).
	EntryChecksum
	// EntrySlot carries 2-phase-commit slot ownership messages (§5.2).
	EntrySlot
	// EntryControl carries other control-plane messages.
	EntryControl
)

// String names the entry type.
func (t EntryType) String() string {
	switch t {
	case EntryData:
		return "data"
	case EntryLeadership:
		return "leadership"
	case EntryLease:
		return "lease"
	case EntryChecksum:
		return "checksum"
	case EntrySlot:
		return "slot"
	case EntryControl:
		return "control"
	}
	return "unknown"
}

// Entry is one committed log record.
type Entry struct {
	ID   EntryID
	Type EntryType
	// Epoch is the leadership epoch of the writer. Leadership entries
	// carry the epoch being claimed.
	Epoch uint64
	// EngineVersion tags which engine version produced the record, for
	// the upgrade protection mechanism (§7.1).
	EngineVersion uint32
	// Records counts the logical replication records coalesced into this
	// data entry by group commit (0 is treated as 1). Metadata only: the
	// payload is self-framing, but the count lets the log keep
	// records-per-entry statistics without parsing payloads.
	Records uint32
	// Watermark is the writer's committed (quorum-acked) watermark at the
	// moment this entry was appended: every sequence number <= Watermark
	// had already been acknowledged to clients. Tailing replicas read it
	// to continuously learn how far behind the primary's ack frontier
	// they are (bounded-staleness accounting); it is always < ID.Seq, so
	// it cannot by itself prove a replica is caught up "now" — consistent
	// reads capture ConsistentTail from the log service instead.
	Watermark uint64
	Payload   []byte
	// TraceID / TraceSpan carry the causal-tracing context of the sampled
	// command whose group-commit batch produced this entry (0 = not
	// sampled). TraceSpan names the batch's append span, so the per-AZ
	// quorum acks here and the tailer applies on replica nodes attach
	// under it. Advisory metadata: deliberately outside the record CRC,
	// so a trace-instrumented writer and a plain one produce
	// byte-identical durable records.
	TraceID   uint64
	TraceSpan uint64
}

// RecordCount returns the number of logical records the entry carries.
func (e Entry) RecordCount() int {
	if e.Records == 0 {
		return 1
	}
	return int(e.Records)
}

// Errors returned by the log. They split into two classes that clients
// MUST treat differently (§4.1.3):
//
//   - Transient (retryable): ErrUnavailable. The service could not be
//     reached or could not assemble a quorum right now; the caller's
//     position in the log is unchanged, so retrying the identical call is
//     safe and correct. IsTransient reports this class.
//   - Fatal: ErrConditionFailed (the fencing primitive — another writer
//     owns the tail; retrying can never succeed and the caller must
//     demote), ErrNoSuchLog, ErrTrimmed, ErrTruncated. Retrying is wrong.
var (
	// ErrConditionFailed reports that After did not name the current tail
	// — another writer appended first. This is the fencing primitive.
	ErrConditionFailed = errors.New("txlog: conditional append failed: not at tail")
	// ErrUnavailable reports that the caller cannot reach the service
	// (partition, injected outage, or fewer than quorum healthy AZs).
	ErrUnavailable = errors.New("txlog: service unavailable")
	// ErrNoSuchLog reports an unknown shard log.
	ErrNoSuchLog = errors.New("txlog: no such log")
	// ErrTrimmed reports a read from a position older than the trim point.
	ErrTrimmed = errors.New("txlog: position trimmed")
	// ErrCorruptSegment reports a read from a quarantined segment: a
	// record in it failed CRC verification, so nothing in the segment can
	// be trusted. Fatal, like ErrTrimmed — the reader must re-bootstrap
	// from a snapshot whose position covers the quarantined range; if no
	// snapshot covers it, recovery fails loudly rather than replaying
	// corrupt data.
	ErrCorruptSegment = errors.New("txlog: segment quarantined (corrupt record)")
	// ErrTruncated reports, from Pending.Wait, that the assigned entry was
	// part of a torn tail RecoverChain dropped: it never committed and
	// never will, and its sequence number may be assigned again.
	ErrTruncated = errors.New("txlog: entry truncated before it committed")
)

// IsTransient reports whether err is a retryable service condition (the
// caller's log position is unchanged and the identical call may succeed
// later). Fencing and trim errors are fatal: retrying cannot help and the
// caller must change state (demote, restore from snapshot) instead.
func IsTransient(err error) bool {
	return errors.Is(err, ErrUnavailable) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Config parameterizes the service.
type Config struct {
	// Clock drives latency simulation. Defaults to the wall clock.
	Clock clock.Clock
	// CommitLatency is the per-AZ acknowledgement latency model: each zone
	// replica draws independently and an append commits at the Quorum-th
	// fastest ack. Defaults to zero.
	CommitLatency netsim.LatencyModel
	// AZCount is the number of availability zone replicas entries are
	// copied to. Defaults to 3.
	AZCount int
	// Quorum is how many AZ acknowledgements an append needs. Defaults to
	// a majority of AZCount (2 of 3).
	Quorum int
	// SegmentEntries / SegmentBytes are the active-segment rotation
	// thresholds: crossing either closes the segment (it seals once fully
	// committed). Defaults: 1024 entries, 1 MiB of payload.
	SegmentEntries int
	SegmentBytes   int
	// Faults, when set, is the registry for the txlog.* fault sites
	// (service outage, each zone's acks, seal, trim, corrupt_record). Nil
	// injects nothing, at a nil check per site.
	Faults *faultpoint.Registry
	// Trace, when set, records per-AZ acknowledgement spans for entries
	// stamped with a trace context (Entry.TraceID != 0).
	Trace *trace.Collector
	// Flight, when set, receives the service's segment-lifecycle events
	// (seal, trim, quarantine) on the cluster flight timeline.
	Flight *trace.Flight
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	if c.CommitLatency == nil {
		c.CommitLatency = netsim.Zero{}
	}
	if c.AZCount == 0 {
		c.AZCount = 3
	}
	if c.Quorum == 0 {
		c.Quorum = c.AZCount/2 + 1
	}
	if c.SegmentEntries == 0 {
		c.SegmentEntries = 1024
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 1 << 20
	}
	return c
}

// Service hosts one transaction log per shard, replicated across a fixed
// set of simulated availability zones shared by all logs (zones are a
// property of the service deployment, not of one shard).
type Service struct {
	cfg  Config
	azs  []*AZReplica
	mu   sync.Mutex
	logs map[string]*Log
}

// NewService returns an empty log service.
func NewService(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{cfg: cfg, logs: make(map[string]*Log)}
	for i := 0; i < cfg.AZCount; i++ {
		s.azs = append(s.azs, newAZReplica(i, cfg.CommitLatency, cfg.Faults))
	}
	return s
}

// Flight returns the service's flight recorder ring (nil unless
// configured) so harnesses can merge it into the cluster timeline.
func (s *Service) Flight() *trace.Flight { return s.cfg.Flight }

// AZs returns all zone replicas.
func (s *Service) AZs() []*AZReplica { return append([]*AZReplica(nil), s.azs...) }

// HealthyAZs counts zones not currently down (flaky/slow zones count as
// healthy — they still serve, just unreliably or slowly).
func (s *Service) HealthyAZs() int {
	n := 0
	for _, az := range s.azs {
		if !az.down() {
			n++
		}
	}
	return n
}

// Quorum returns the acknowledgement quorum appends must reach.
func (s *Service) Quorum() int { return s.cfg.Quorum }

// noteSeal records one sealed segment against every zone replica: an up
// zone stores its copy (first catching up on any segments it missed
// while down — the segment-granular background resync), a down zone
// falls one whole segment further behind.
func (s *Service) noteSeal() {
	for _, az := range s.azs {
		az.noteSeal()
	}
}

// Degraded reports whether the service is running below full replication
// (at least one zone down) while still meeting quorum.
func (s *Service) Degraded() bool {
	h := s.HealthyAZs()
	return h < s.cfg.AZCount && h >= s.cfg.Quorum
}

// readErr reports whether committed entries can currently be served to
// readers: a standing whole-service outage or a below-quorum zone set
// makes reads fail transiently (the data is safe; the service just cannot
// serve it).
func (s *Service) readErr() error {
	if s.cfg.Faults.Standing(faultpoint.SiteLogUnavailable) == faultpoint.Error || s.HealthyAZs() < s.cfg.Quorum {
		return ErrUnavailable
	}
	return nil
}

// azAck is one zone's acknowledgement of an append: which zone, and
// its drawn latency. The slice quorumAck returns is what per-AZ ack
// spans are built from when the entry is traced.
type azAck struct {
	az  int
	lat time.Duration
}

// quorumAck samples one append across the zone replicas: every zone draws
// an acknowledgement (or drops it — down/flaky), and the append commits at
// the Quorum-th fastest ack. ok=false means quorum was not reached and the
// append must be rejected as unavailable. acked is sorted fastest-first.
func (s *Service) quorumAck() (commit time.Duration, acked []azAck, ok bool) {
	acked = make([]azAck, 0, len(s.azs))
	for i, az := range s.azs {
		if d, ok := az.ack(); ok {
			acked = append(acked, azAck{az: i, lat: d})
			// A handful of zones, nearly in order: sink it into place.
			for j := len(acked) - 1; j > 0 && acked[j-1].lat > d; j-- {
				acked[j-1], acked[j] = acked[j], acked[j-1]
			}
		}
	}
	if len(acked) < s.cfg.Quorum {
		return 0, acked, false
	}
	return acked[s.cfg.Quorum-1].lat, acked, true
}

// azNodeName labels a zone replica on span trees without allocating for
// the common zone counts.
var azNodeNames = [...]string{"az-0", "az-1", "az-2", "az-3", "az-4", "az-5", "az-6", "az-7"}

func azNodeName(i int) string {
	if i >= 0 && i < len(azNodeNames) {
		return azNodeNames[i]
	}
	return fmt.Sprintf("az-%d", i)
}

// CreateLog provisions the log for shardID. Creating an existing log is an
// error (resharding must use fresh shard IDs).
func (s *Service) CreateLog(shardID string) (*Log, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.logs[shardID]; ok {
		return nil, fmt.Errorf("txlog: log %q already exists", shardID)
	}
	l := newLog(s, shardID)
	s.logs[shardID] = l
	return l, nil
}

// Log returns the log for shardID.
func (s *Service) Log(shardID string) (*Log, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.logs[shardID]
	return l, ok
}

// Log is one shard's transaction log: a chain of segments, the last of
// which is active and accepts appends (see segment.go for the segment
// lifecycle).
type Log struct {
	svc     *Service
	shardID string

	mu        sync.Mutex
	segs      []*segment // non-empty; ordered, contiguous; last = active
	assigned  uint64     // highest assigned Seq
	committed uint64     // highest committed Seq (visible watermark)
	// inflight holds the appends in (committed, assigned] in sequence
	// order: the FIFO commitDue pops, one timer armed for its head's due
	// time. batch is a round's popped heads, reused round to round, and
	// commitFn and wakeFn, commitDue and the readers' wake-up, are bound
	// once: a round allocates nothing of its own.
	inflight         []*Pending
	committing       bool // a round is running
	batch            []*Pending
	commitFn, wakeFn func()
	// notify is what a caught-up Reader.Ready waits on: closed and replaced
	// notifyEvery after the watermark advances, if a reader asked since the
	// last wake-up was scheduled (notifyWanted) — see commitDue.
	notify       chan struct{}
	notifyWanted bool

	// Running checksum over committed data-entry payloads, chained CRC-32C.
	checksum     uint64
	baseChecksum uint64 // checksum at the trim point
	currentEpoch uint64
	azCopies     int64 // total (entry × AZ) durable copies, for tests/metrics
	stats        Stats
	crcHdr       [29]byte // recordCRC's scratch

	// Segment lifecycle totals (surfaced via SegmentStats).
	sealedTotal      int64
	trimmedTotal     int64
	entriesTrimmed   int64
	quarantinedTotal int64
	sealsDeferred    int64
	trimsDeferred    int64
	tornTruncated    int64

	closed bool
}

// trimBase returns the trim point: the Seq at or before which reads fail
// with ErrTrimmed. Caller holds mu.
func (l *Log) trimBase() uint64 { return l.segs[0].base }

// active returns the append target segment. Caller holds mu.
func (l *Log) active() *segment { return l.segs[len(l.segs)-1] }

// segFor locates the segment containing seq via binary search over the
// per-segment min/max index. Caller holds mu.
func (l *Log) segFor(seq uint64) *segment {
	i := sort.Search(len(l.segs), func(i int) bool { return l.segs[i].maxSeq() >= seq })
	if i < len(l.segs) && l.segs[i].contains(seq) {
		return l.segs[i]
	}
	return nil
}

// Stats are cumulative per-log append counters, the observability surface
// for group commit: when the primary coalesces records, Records grows
// faster than DataAppends and the histogram shifts toward larger buckets.
type Stats struct {
	// Appends counts successful StartAppend calls of any entry type.
	Appends int64
	// DataAppends counts successful EntryData appends (quorum round-trips
	// spent on the replication stream).
	DataAppends int64
	// Records counts logical replication records across all data appends;
	// Records/DataAppends is the mean group-commit batch size.
	Records int64
	// PayloadBytes sums data-entry payload sizes.
	PayloadBytes int64
	// MaxRecordsPerEntry is the largest batch observed.
	MaxRecordsPerEntry int64
	// RecordsPerEntry is a power-of-two histogram of batch sizes: bucket i
	// counts data entries carrying [2^i, 2^(i+1)) records (the last bucket
	// is open-ended).
	RecordsPerEntry [8]int64
	// DegradedAppends counts appends that committed with fewer than
	// AZCount acknowledgements (quorum met, full replication not).
	DegradedAppends int64
}

// histBucket maps a record count to its RecordsPerEntry bucket.
func histBucket(records int) int {
	b := 0
	for records > 1 && b < 7 {
		records >>= 1
		b++
	}
	return b
}

// Stats returns a copy of the log's append counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

func newLog(s *Service, shardID string) *Log {
	l := &Log{
		svc:     s,
		shardID: shardID,
		segs:    []*segment{{}},
		notify:  make(chan struct{}),
	}
	l.commitFn = l.commitDue
	l.wakeFn = func() {
		l.mu.Lock()
		l.wakeReadersLocked()
		l.mu.Unlock()
	}
	return l
}

// ShardID returns the owning shard's ID.
func (l *Log) ShardID() string { return l.shardID }

// Degraded reports whether the owning service currently runs below full
// replication (at least one AZ down) while still meeting quorum.
func (l *Log) Degraded() bool { return l.svc.Degraded() }

// Pending is an assigned-but-possibly-not-yet-durable append. The service
// is internally reliable, so the entry commits — unless the log itself
// loses it first (RecoverChain drops a torn tail, DeleteLog destroys the
// log). Wait blocks until one or the other is known.
type Pending struct {
	id      EntryID
	acks    int // AZ replicas that acknowledged (>= quorum)
	azTotal int // configured AZ count
	// due is when the quorum-th fastest zone's acknowledgement arrives: the
	// entry commits once due has passed for it and for every entry before
	// it.
	due time.Time
	// err is why the entry will never commit; written before done closes.
	err  error
	done chan struct{}
}

// ID returns the assigned entry ID.
func (p *Pending) ID() EntryID { return p.id }

// Acks returns how many AZ replicas acknowledged the append. Acks below
// AZTotal means the write committed degraded (quorum met, full
// replication not).
func (p *Pending) Acks() int { return p.acks }

// AZTotal returns the configured number of AZ replicas.
func (p *Pending) AZTotal() int { return p.azTotal }

// Done is closed once the log has answered for the entry: Wait then
// returns at once with its outcome.
func (p *Pending) Done() <-chan struct{} { return p.done }

// Wait blocks until the entry is durably committed (nil), the log has
// given it up (ErrTruncated, ErrNoSuchLog — it will never commit) or ctx
// is cancelled. A cancelled wait does not abort the append: the entry
// still commits — mirroring a timed-out client whose write nevertheless
// persisted.
func (p *Pending) Wait(ctx context.Context) (EntryID, error) {
	select {
	case <-p.done:
		return p.id, p.err
	case <-ctx.Done():
		return p.id, ctx.Err()
	}
}

// complete releases every waiter with err. Each Pending is completed once,
// by whoever took it off the log's in-flight FIFO under mu.
func complete(ps []*Pending, err error) {
	for _, p := range ps {
		p.err = err
		close(p.done)
	}
}

// StartAppend atomically validates the precondition and assigns the next
// entry ID, returning a Pending handle for the durable acknowledgement.
// Assignment is synchronous and cheap, so a primary can pipeline appends
// by chaining after = previous Pending's ID without waiting for commits.
// A stale after (not the current tail) fails with ErrConditionFailed —
// the primitive that fences stale writers and arbitrates leadership
// claims (§4.1.1, §4.1.2).
func (l *Log) StartAppend(after EntryID, e Entry) (*Pending, error) {
	if l.svc.cfg.Faults.Hit(faultpoint.SiteLogUnavailable).Kind == faultpoint.Error {
		return nil, ErrUnavailable
	}
	// Per-AZ quorum: sample every zone's acknowledgement before assigning a
	// sequence number, so a below-quorum service rejects the append with no
	// state change (the caller's position is intact and a retry is safe).
	// Once assigned, the entry is guaranteed to commit. The append is
	// durable at the quorum-th fastest acknowledgement (with one zone down,
	// the slower of the remaining two — degraded latency, preserved
	// availability).
	commitLat, acked, ok := l.svc.quorumAck()
	if !ok {
		return nil, ErrUnavailable
	}
	p := &Pending{acks: len(acked), azTotal: l.svc.cfg.AZCount, due: l.svc.cfg.Clock.Now().Add(commitLat), done: make(chan struct{})}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrNoSuchLog
	}
	if after.Seq != l.assigned {
		l.mu.Unlock()
		return nil, ErrConditionFailed
	}
	if e.Type == EntryLeadership {
		// Leadership claims must move the epoch forward; the log enforces
		// monotonicity so a delayed duplicate claim cannot regress it.
		if e.Epoch <= l.currentEpoch {
			l.mu.Unlock()
			return nil, ErrConditionFailed
		}
		l.currentEpoch = e.Epoch
	}
	l.assigned++
	e.ID = EntryID{Seq: l.assigned}
	p.id = e.ID
	// The record CRC is fixed now, over what the writer sent; a Corrupt
	// decision at txlog.corrupt_record then silently damages the stored
	// copy (bit rot the CRC no longer matches) — read-time verification
	// must catch it.
	crc := recordCRC(&e, &l.crcHdr)
	if e.Type == EntryData {
		if d := l.svc.cfg.Faults.Hit(faultpoint.SiteLogCorruptRecord); d.Kind == faultpoint.Corrupt && len(e.Payload) > 0 {
			e.Payload = l.svc.cfg.Faults.FlipByte(e.Payload)
		}
	}
	act := l.active()
	act.entries = append(act.entries, e)
	act.cums = append(act.cums, 0)
	act.crcs = append(act.crcs, crc)
	act.bytes += int64(len(e.Payload))
	l.stats.Appends++
	if p.acks < p.azTotal {
		l.stats.DegradedAppends++
	}
	if e.Type == EntryData {
		records := e.RecordCount()
		l.stats.DataAppends++
		l.stats.Records += int64(records)
		l.stats.PayloadBytes += int64(len(e.Payload))
		l.stats.RecordsPerEntry[histBucket(records)]++
		if int64(records) > l.stats.MaxRecordsPerEntry {
			l.stats.MaxRecordsPerEntry = int64(records)
		}
	}
	// Rotate when the active segment crosses a threshold: it closes here
	// and seals (footer over the record-CRC index) once fully committed.
	if len(act.entries) >= l.svc.cfg.SegmentEntries || act.bytes >= int64(l.svc.cfg.SegmentBytes) {
		act.closed = true
		l.segs = append(l.segs, &segment{base: act.maxSeq()})
	}
	l.inflight = append(l.inflight, p)
	head := len(l.inflight) == 1
	l.mu.Unlock()

	// Traced entry: attach one span per acknowledging zone under the
	// batch's append span, so the trace tree shows which AZs carried the
	// quorum and how fast each acked.
	if e.TraceID != 0 {
		if c := l.svc.cfg.Trace; c != nil {
			parent := trace.SpanContext{TraceID: e.TraceID, SpanID: e.TraceSpan}
			now := trace.Now()
			for _, a := range acked {
				c.Emit(parent, "az_ack", azNodeName(a.az), a.az, now, now+int64(a.lat))
			}
		}
	}
	// The new head gets the log's one commit timer; one already due
	// commits here, before the caller sees its Pending.
	if head {
		if d := p.due.Sub(l.svc.cfg.Clock.Now()); d > 0 {
			l.svc.cfg.Clock.AfterFunc(d, l.commitFn)
		} else {
			l.commitDue()
		}
	}
	return p, nil
}

// Append is StartAppend followed by Wait: it blocks for the quorum commit
// latency and returns the assigned ID once the entry is durable.
func (l *Log) Append(ctx context.Context, after EntryID, e Entry) (EntryID, error) {
	p, err := l.StartAppend(after, e)
	if err != nil {
		return ZeroID, err
	}
	return p.Wait(ctx)
}

// commitDue is one commit round, run by the timer armed for the FIFO's
// head or by the appender whose append is due at once. An acknowledgement
// implies the whole prefix is durable, so entry k commits at
// max(due_1 … due_k), whatever the latency model. A round pops every due
// head, advances the watermark over them in order, schedules the readers'
// wake-up, seals what became due and only then completes their Pendings;
// it repeats while the new head is due, else arms one timer for it. Rounds
// are serialised (a call that finds one running leaves the head to its end
// check), so Pendings complete in order and one sealer runs. A timer that
// finds nothing due (AfterFunc never fires early) is stale: RecoverChain
// truncated its head, or the log was destroyed; it arms nothing. What a
// caller does on completion runs on its own goroutines, not the log's.
func (l *Log) commitDue() {
	clk := l.svc.cfg.Clock
	l.mu.Lock()
	if l.committing {
		l.mu.Unlock()
		return
	}
	l.committing = true
	var wait time.Duration
	for !l.closed {
		now := clk.Now()
		n := 0
		for n < len(l.inflight) && !l.inflight[n].due.After(now) {
			l.commitLocked(l.inflight[n])
			n++
		}
		l.batch = append(l.batch[:0], l.inflight[:n]...)
		rest := copy(l.inflight, l.inflight[n:])
		clear(l.inflight[rest:])
		l.inflight = l.inflight[:rest]
		if n > 0 && l.notifyWanted {
			l.notifyWanted = false
			clk.AfterFunc(notifyEvery, l.wakeFn)
		}
		sealDue := l.sealDueLocked() != nil
		l.mu.Unlock()
		if sealDue {
			l.finalizeSeals()
		}
		complete(l.batch, nil)
		l.mu.Lock()
		if len(l.inflight) == 0 {
			break
		}
		if wait = l.inflight[0].due.Sub(clk.Now()); wait > 0 {
			if n == 0 {
				wait = 0 // a stale timer: the head has its own
			}
			break
		}
	}
	l.committing = false
	l.mu.Unlock()
	if wait > 0 {
		clk.AfterFunc(wait, l.commitFn)
	}
}

// commitLocked moves the watermark over p's entry, the next in sequence.
// Caller holds mu.
func (l *Log) commitLocked(p *Pending) {
	seq := p.id.Seq
	s := l.segFor(seq)
	l.committed = seq
	l.azCopies += int64(p.acks)
	if e := s.entry(seq); e.Type == EntryData {
		l.checksum = ChainChecksum(l.checksum, e.Payload)
	}
	s.cums[seq-s.base-1] = l.checksum
}

// sealDueLocked returns a closed, fully committed, not-yet-sealed
// segment. Caller holds mu.
func (l *Log) sealDueLocked() *segment {
	for _, s := range l.segs {
		if s.closed && !s.sealed && s.maxSeq() <= l.committed {
			return s
		}
	}
	return nil
}

// finalizeSeals seals every due segment. It runs in a commit round — the
// only sealer — with the log lock released, between advancing the
// watermark and acknowledging the entries that advanced it: a segment is
// sealed by the time the append that completed it returns. A stall there
// (txlog.seal.pre Delay) stalls whoever runs the round, as a stalled log
// service would: the acks behind it, an appender due at once (a primary's
// workloop) and, on a clock.Sim, the Advance it runs in, until another
// goroutine advances the clock. Error/Crash at txlog.seal.pre models the
// sealer dying before the footer write: the segment stays
// closed-but-unsealed (and untrimmable) until a later commit retries;
// Corrupt writes a bad footer the restart verification pass must catch.
// txlog.seal.post fires once the segment is immutable.
func (l *Log) finalizeSeals() {
	faults := l.svc.cfg.Faults
	clk := l.svc.cfg.Clock
	for {
		l.mu.Lock()
		target := l.sealDueLocked()
		l.mu.Unlock()
		if target == nil {
			return
		}
		d := faults.Hit(faultpoint.SiteLogSealPre)
		if d.Kind == faultpoint.Delay {
			clk.Sleep(d.Delay)
		}
		l.mu.Lock()
		if d.Kind == faultpoint.Error || d.Kind == faultpoint.Crash {
			l.sealsDeferred++
			l.mu.Unlock()
			return
		}
		target.footer = target.computeFooter()
		if d.Kind == faultpoint.Corrupt {
			target.footer ^= 0x5a5a5a5a
		}
		target.sealed = true
		l.sealedTotal++
		sealedMax := target.maxSeq()
		l.mu.Unlock()
		l.svc.cfg.Flight.Record(trace.EvSegmentSeal, sealedMax, l.shardID)
		// Every zone replica stores (or, if down, misses) the sealed
		// segment — the segment-granular per-AZ state.
		l.svc.noteSeal()
		if d := faults.Hit(faultpoint.SiteLogSealPost); d.Kind == faultpoint.Delay {
			clk.Sleep(d.Delay)
		}
	}
}

// ChainChecksum extends a running log checksum with one more data-entry
// payload. The primary uses this to maintain its local running checksum,
// which it periodically injects into the log as an EntryChecksum (§7.2.1).
// It is CRC-32C, the code recordCRC uses and the CPU computes in hardware,
// zero-extended: the sum's fields stay 64 bits wide.
func ChainChecksum(sum uint64, payload []byte) uint64 {
	return uint64(crc32.Update(uint32(sum), crc32Table, payload))
}

// EncodeChecksumPayload renders a running checksum as an EntryChecksum
// payload.
func EncodeChecksumPayload(sum uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, sum)
	return b
}

// DecodeChecksumPayload parses an EntryChecksum payload.
func DecodeChecksumPayload(b []byte) uint64 {
	if len(b) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// CommittedTail returns the ID of the last committed (reader-visible)
// entry; ZeroID when empty.
func (l *Log) CommittedTail() EntryID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return EntryID{Seq: l.committed}
}

// ConsistentTail is CommittedTail with an availability check: it is the
// read-index primitive for linearizable replica reads. A replica that
// wants to serve a read linearizably captures the committed tail HERE —
// at the authoritative log service, after the read arrived — and waits
// until its applied position covers it. Returning ErrUnavailable when
// the service is down or below quorum is what makes the capture sound:
// a partitioned replica cannot obtain a fresh tail, so it degrades
// instead of serving a guess. (The piggybacked Entry.Watermark cannot
// substitute: it is always behind the entry carrying it.)
func (l *Log) ConsistentTail() (EntryID, error) {
	if err := l.svc.readErr(); err != nil {
		return ZeroID, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return EntryID{Seq: l.committed}, nil
}

// AssignedTail returns the ID a new append must follow. For a caught-up
// writer this equals CommittedTail.
func (l *Log) AssignedTail() EntryID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return EntryID{Seq: l.assigned}
}

// CurrentEpoch returns the highest leadership epoch ever claimed.
func (l *Log) CurrentEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.currentEpoch
}

// RunningChecksum returns the committed tail and the running CRC-32C of all
// committed data payloads up to it.
func (l *Log) RunningChecksum() (EntryID, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return EntryID{Seq: l.committed}, l.checksum
}

// AZCopies returns the total number of durable (entry × AZ) copies made —
// a metric tests use to assert multi-AZ replication happened.
func (l *Log) AZCopies() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.azCopies
}

// quarantineLocked condemns a segment after a record in it failed
// verification: every read from it now fails with ErrCorruptSegment. A
// poisoned active segment is closed and a clean one installed so appends
// continue (sequence numbering runs across the hole). Caller holds mu.
func (l *Log) quarantineLocked(s *segment, reason string) {
	if s.quarantined {
		return
	}
	s.quarantined = true
	l.quarantinedTotal++
	if s == l.active() && !s.closed {
		s.closed = true
		l.segs = append(l.segs, &segment{base: s.maxSeq()})
	}
	l.svc.cfg.Flight.Recordf(trace.EvSegmentQuarantine, s.maxSeq(), "txlog %s: quarantined segment [%d,%d]: %s",
		l.shardID, s.minSeq(), s.maxSeq(), reason)
}

// verifyRecordLocked re-checks the stored record at seq against its
// append-time CRC; a mismatch quarantines the whole segment. Caller
// holds mu; returns false when the record cannot be served.
func (l *Log) verifyRecordLocked(s *segment, seq uint64) bool {
	if s.quarantined {
		return false
	}
	if recordCRC(s.entry(seq), &l.crcHdr) == s.crc(seq) {
		return true
	}
	l.quarantineLocked(s, fmt.Sprintf("record %d failed CRC verification", seq))
	return false
}

// Get returns the committed entry with the given ID. Reads verify the
// record CRC: a mismatch quarantines the segment and the read fails.
func (l *Log) Get(id EntryID) (Entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if id.Seq <= l.trimBase() || id.Seq > l.committed {
		return Entry{}, false
	}
	s := l.segFor(id.Seq)
	if s == nil || !l.verifyRecordLocked(s, id.Seq) {
		return Entry{}, false
	}
	return *s.entry(id.Seq), true
}

// TrimBase returns the current trim point: the position reads at or
// before which fail with ErrTrimmed (a whole-segment boundary).
func (l *Log) TrimBase() EntryID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return EntryID{Seq: l.trimBase()}
}

// ChecksumAt returns the running checksum as of committed entry id (the
// checksum over all committed data payloads with Seq <= id.Seq). Fails for
// trimmed, quarantined, or uncommitted positions.
func (l *Log) ChecksumAt(id EntryID) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if id.Seq < l.trimBase() {
		return 0, ErrTrimmed
	}
	if id.Seq == l.trimBase() {
		return l.baseChecksum, nil
	}
	if id.Seq > l.committed {
		return 0, fmt.Errorf("txlog: %v not committed", id)
	}
	s := l.segFor(id.Seq)
	if s == nil {
		return 0, ErrTrimmed
	}
	if s.quarantined {
		return 0, ErrCorruptSegment
	}
	return s.cum(id.Seq), nil
}

// Trim discards whole sealed segments entirely covered by upTo — the
// snapshot-coordinated trim point. Partial segments are never split, so
// the effective trim point rounds down to a segment boundary and
// ChecksumAt stays answerable at every retained position (and, via the
// recorded base checksum, at the boundary itself). Reads from trimmed
// positions fail with ErrTrimmed; recovery must start from a snapshot at
// or after the trim point — the one caller (snapshot.Builder) only ever
// passes positions covered by a durable, verified snapshot. Returns how
// many segments were dropped; an Error/Crash decision at txlog.trim.pre
// aborts the call with no state change (the builder trims again behind
// its next verified full).
func (l *Log) Trim(upTo EntryID) int {
	faults := l.svc.cfg.Faults
	switch d := faults.Hit(faultpoint.SiteLogTrimPre); d.Kind {
	case faultpoint.Error, faultpoint.Crash:
		l.mu.Lock()
		l.trimsDeferred++
		l.mu.Unlock()
		return 0
	case faultpoint.Delay:
		l.svc.cfg.Clock.Sleep(d.Delay)
	}
	n := 0
	l.mu.Lock()
	for len(l.segs) > 1 {
		s := l.segs[0]
		if !s.sealed || s.maxSeq() > upTo.Seq || s.maxSeq() > l.committed {
			break
		}
		l.baseChecksum = s.cums[len(s.cums)-1]
		l.entriesTrimmed += int64(len(s.entries))
		l.trimmedTotal++
		l.segs = l.segs[1:]
		n++
	}
	if n > 0 {
		// Re-slice so the dropped segments' backing array is released.
		l.segs = append([]*segment(nil), l.segs...)
	}
	newBase := l.trimBase()
	l.mu.Unlock()
	if n > 0 {
		l.svc.cfg.Flight.Record(trace.EvSegmentTrim, newBase, l.shardID)
	}
	faults.Hit(faultpoint.SiteLogTrimPost)
	return n
}

// RecoverChain models the log service's restart integrity pass: verify
// chain contiguity and every sealed segment's footer + record CRCs
// (quarantining mismatches, with counter and alarm), re-verify the
// committed records of unsealed segments, and truncate the torn tail —
// assigned-but-uncommitted entries a dying service never finished
// replicating. Harnesses call it on a quiesced log (no appends in
// flight). Returns the number of segments quarantined and entries
// truncated by this pass.
func (l *Log) RecoverChain() (quarantined, truncated int) {
	var torn []*Pending
	l.mu.Lock()
	for i, s := range l.segs {
		if i > 0 && s.base != l.segs[i-1].maxSeq() && !s.quarantined {
			l.quarantineLocked(s, "segment chain discontinuity")
			quarantined++
			continue
		}
		if s.quarantined {
			continue
		}
		if s.sealed {
			if !s.verify(&l.crcHdr) {
				l.quarantineLocked(s, "sealed segment failed footer/CRC verification")
				quarantined++
			}
			continue
		}
		for seq := s.minSeq(); seq <= s.maxSeq() && seq <= l.committed; seq++ {
			if recordCRC(s.entry(seq), &l.crcHdr) != s.crc(seq) {
				l.quarantineLocked(s, fmt.Sprintf("record %d failed CRC verification", seq))
				quarantined++
				break
			}
		}
	}
	if l.assigned > l.committed {
		for len(l.segs) > 0 {
			s := l.segs[len(l.segs)-1]
			if s.base >= l.committed {
				// Entire segment is uncommitted tail: drop it.
				truncated += len(s.entries)
				l.segs = l.segs[:len(l.segs)-1]
				continue
			}
			if s.maxSeq() > l.committed {
				keep := int(l.committed - s.base)
				truncated += len(s.entries) - keep
				s.entries = s.entries[:keep]
				s.crcs = s.crcs[:keep]
				s.cums = s.cums[:keep]
				var b int64
				for i := range s.entries {
					b += int64(len(s.entries[i].Payload))
				}
				s.bytes = b
			}
			break
		}
		if len(l.segs) == 0 {
			l.segs = []*segment{{base: l.committed}}
		}
		l.assigned = l.committed
		l.tornTruncated += int64(truncated)
		// Everything in flight is the torn tail: off the commit FIFO
		// here, under the lock that dropped the entries, so no timer armed
		// for one of them can commit whichever entry reuses its sequence.
		torn, l.inflight = l.inflight, nil
	}
	// Guarantee an appendable active segment.
	if act := l.active(); act.sealed || act.closed || act.quarantined {
		l.segs = append(l.segs, &segment{base: act.maxSeq()})
	}
	l.mu.Unlock()
	complete(torn, ErrTruncated)
	return quarantined, truncated
}

// notifyEvery is the cadence of the log's push to subscribers: a commit
// wakes the readers parked on Ready notifyEvery later, and they then drain
// everything committed since — however fast the primary commits, a caught-up
// subscriber is woken about once per notifyEvery. A reader that is behind
// never waits on it (its Ready is already closed). This one constant is the
// floor under replication lag; deleting it — a commit round closing notify
// as it advances the watermark — waits on a benchmark that can accept the
// gain.
const notifyEvery = time.Millisecond

func (l *Log) wakeReadersLocked() {
	close(l.notify)
	l.notify = make(chan struct{})
}
