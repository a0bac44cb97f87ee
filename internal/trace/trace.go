// Package trace provides cross-node causal tracing and an always-on
// bounded flight recorder for the cluster.
//
// Tracing: a SpanContext (trace ID + parent span ID) is minted at
// command parse (or at workloop submit when no front-end is present),
// carried through the workloop task, stamped onto the group-commit
// batch's txlog.Entry, and picked up again by the per-AZ quorum acks
// and the replica tailers — so one sampled SET yields a single span
// tree covering primary stages, log-service AZ acks, and replica
// applies on other nodes. Sampling is deterministic and seed-driven
// (xorshift64*) so chaos schedules replay with the same commands traced;
// this is the process's one command sampler — LATENCY TRACES is a
// per-command summary of the same span trees TRACE GET returns.
//
// The flight recorder is a fixed-size per-node ring of significant
// events (role transitions, fencings, fault fires, segment lifecycle,
// tailer rebootstraps...). Writers claim a slot with one atomic
// increment — no shared lock, no allocation, no lost events — so it is
// safe to leave on in the hottest paths. Rings from every node merge
// into one causally-ordered cluster timeline (timestamps come from a
// single process-wide monotonic clock, internal/obs.Now).
package trace

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"memorydb/internal/obs"
)

// Now returns monotonic nanoseconds since process start — the same
// clock internal/obs stamps stage boundaries with, so span edges can
// reuse already-taken obs timestamps and flight events from different
// in-process nodes merge into one ordered timeline.
func Now() int64 { return obs.Now() }

// SpanContext identifies a position in a trace: which trace, and which
// span new children should attach under. The zero value means "not
// sampled" (TraceID 0 is never minted).
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Span is one completed operation in a trace. Start/End are Now()
// nanoseconds. AZ is -1 except for per-AZ log acks; Shard is -1 when
// the span is not bound to an execution shard.
type Span struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64 // 0 for the root span
	Name     string
	Node     string
	AZ       int
	Shard    int
	Start    int64
	End      int64
}

// Dur returns the span duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

type ctxKey struct{}

// NewContext returns ctx carrying sc.
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts a span context placed by NewContext.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok
}

// Collector samples traces and keeps completed spans in a bounded ring.
// One Collector is shared by every node (and the log service) of an
// in-process cluster; the production server has one per process.
type Collector struct {
	rateBits atomic.Uint64 // math.Float64bits fast-path gate
	ids      atomic.Uint64 // trace + span ID allocator (never 0)
	sampled  atomic.Int64  // traces minted
	spans    atomic.Int64  // spans recorded (including overwritten)

	mu     sync.Mutex
	rng    uint64 // xorshift64* state, seeded for determinism
	ring   []Span
	next   int
	filled bool
}

// DefaultSpanRing bounds the completed-span ring when no size is given.
const DefaultSpanRing = 4096

// NewCollector returns a collector sampling the given fraction of
// commands ([0,1]), deterministically from seed. ringSize bounds the
// completed-span ring (DefaultSpanRing if <= 0).
func NewCollector(rate float64, seed int64, ringSize int) *Collector {
	if ringSize <= 0 {
		ringSize = DefaultSpanRing
	}
	if seed == 0 {
		seed = 1
	}
	c := &Collector{rng: uint64(seed), ring: make([]Span, ringSize)}
	c.SetRate(rate)
	return c
}

// SetRate changes the sampling rate at runtime.
func (c *Collector) SetRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	c.rateBits.Store(math.Float64bits(rate))
}

// Sample draws the deterministic sampling coin; when it fires it mints
// a fresh root span context. With rate 0 the cost is one atomic load.
func (c *Collector) Sample() (SpanContext, bool) {
	rate := math.Float64frombits(c.rateBits.Load())
	if rate <= 0 {
		return SpanContext{}, false
	}
	c.mu.Lock()
	c.rng ^= c.rng >> 12
	c.rng ^= c.rng << 25
	c.rng ^= c.rng >> 27
	draw := float64((c.rng*0x2545F4914F6CDD1D)>>11) / float64(1<<53)
	c.mu.Unlock()
	if draw >= rate {
		return SpanContext{}, false
	}
	return c.ForceSample(), true
}

// ForceSample mints a root span context unconditionally (tests, and
// explicit TRACE-me surfaces).
func (c *Collector) ForceSample() SpanContext {
	c.sampled.Add(1)
	return SpanContext{TraceID: c.ids.Add(1), SpanID: c.ids.Add(1)}
}

// NewSpanID allocates a span ID for a span whose identity must be
// known before it completes (the batch append span is stamped onto the
// log entry so remote children can attach under it).
func (c *Collector) NewSpanID() uint64 { return c.ids.Add(1) }

// Root returns the started root span for a freshly minted context.
// Record it with Finish once the command's reply is written.
func (c *Collector) Root(sc SpanContext, name, node string) Span {
	return Span{TraceID: sc.TraceID, SpanID: sc.SpanID, Name: name, Node: node, AZ: -1, Shard: -1, Start: Now()}
}

// Child returns a started span under parent. Record with Finish.
func (c *Collector) Child(parent SpanContext, name, node string, shard int) Span {
	return Span{TraceID: parent.TraceID, SpanID: c.ids.Add(1), ParentID: parent.SpanID,
		Name: name, Node: node, AZ: -1, Shard: shard, Start: Now()}
}

// Finish stamps the end time (if unset) and records the span.
func (c *Collector) Finish(s Span) {
	if s.TraceID == 0 {
		return
	}
	if s.End == 0 {
		s.End = Now()
	}
	c.record(s)
}

// Emit records a completed child span under parent with explicit
// edges — used where both timestamps were already taken (reusing the
// obs stage stamps) or are simulated (per-AZ ack latency draws).
func (c *Collector) Emit(parent SpanContext, name, node string, az, shard int, start, end int64) {
	if parent.TraceID == 0 {
		return
	}
	c.record(Span{TraceID: parent.TraceID, SpanID: c.ids.Add(1), ParentID: parent.SpanID,
		Name: name, Node: node, AZ: az, Shard: shard, Start: start, End: end})
}

// EmitWithID is Emit with a pre-allocated span ID (from NewSpanID) —
// the append span's ID is fixed before the entry ships so AZ acks and
// replica applies can parent under it.
func (c *Collector) EmitWithID(id uint64, parent SpanContext, name, node string, shard int, start, end int64) {
	if parent.TraceID == 0 {
		return
	}
	c.record(Span{TraceID: parent.TraceID, SpanID: id, ParentID: parent.SpanID,
		Name: name, Node: node, AZ: -1, Shard: shard, Start: start, End: end})
}

func (c *Collector) record(s Span) {
	c.spans.Add(1)
	c.mu.Lock()
	c.ring[c.next] = s
	c.next++
	if c.next == len(c.ring) {
		c.next = 0
		c.filled = true
	}
	c.mu.Unlock()
}

// SampledCount returns how many traces have been minted.
func (c *Collector) SampledCount() int64 { return c.sampled.Load() }

// SpanCount returns how many spans have been recorded (ever, not the
// current ring occupancy).
func (c *Collector) SpanCount() int64 { return c.spans.Load() }

// Trace returns every retained span of the given trace, parents before
// children where starts are equal, earliest first.
func (c *Collector) Trace(id uint64) []Span {
	if id == 0 {
		return nil
	}
	var out []Span
	c.mu.Lock()
	n := c.next
	if c.filled {
		n = len(c.ring)
	}
	for i := 0; i < n; i++ {
		if c.ring[i].TraceID == id {
			out = append(out, c.ring[i])
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// RecentTraces returns up to n distinct trace IDs, newest recording
// first.
func (c *Collector) RecentTraces(n int) []uint64 {
	if n <= 0 {
		return nil
	}
	var out []uint64
	seen := map[uint64]bool{}
	c.mu.Lock()
	total := c.next
	if c.filled {
		total = len(c.ring)
	}
	for i := 0; i < total && len(out) < n; i++ {
		idx := c.next - 1 - i
		if idx < 0 {
			idx += len(c.ring)
		}
		id := c.ring[idx].TraceID
		if id != 0 && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	c.mu.Unlock()
	return out
}

// CommandSummary is one traced command's stage breakdown, read off its
// span tree: Total is the node-level cmd:* span, Queue and Exec its
// queue_wait and execute children (nanoseconds); what remains of Total is
// commit time (batch residency, append, quorum wait, tracker release).
type CommandSummary struct {
	TraceID            uint64
	Cmd                string
	Total, Queue, Exec int64
	// Shard is the execution shard that handled the command (-1 for the
	// barrier shard).
	Shard int
}

// RecentCommands summarises up to n recent traces whose command span has
// completed, newest first.
func (c *Collector) RecentCommands(n int) []CommandSummary {
	var out []CommandSummary
	for _, id := range c.RecentTraces(n) {
		spans := c.Trace(id)
		// Spans sort by start, so the last cmd:* span is the node's even
		// when the server front-end minted a root of the same name.
		cmd := -1
		for i, s := range spans {
			if strings.HasPrefix(s.Name, "cmd:") {
				cmd = i
			}
		}
		if cmd < 0 {
			continue
		}
		sum := CommandSummary{TraceID: id, Cmd: spans[cmd].Name[len("cmd:"):], Total: spans[cmd].Dur(), Shard: -1}
		for _, s := range spans {
			if s.ParentID != spans[cmd].SpanID {
				continue
			}
			switch s.Name {
			case "queue_wait":
				sum.Queue, sum.Shard = s.Dur(), s.Shard
			case "execute":
				sum.Exec = s.Dur()
			}
		}
		out = append(out, sum)
	}
	return out
}

// Reset drops retained spans (the ID allocator and counters keep
// going, so old trace IDs stay unique).
func (c *Collector) Reset() {
	c.mu.Lock()
	for i := range c.ring {
		c.ring[i] = Span{}
	}
	c.next = 0
	c.filled = false
	c.mu.Unlock()
}
