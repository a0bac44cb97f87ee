package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// EventKind classifies flight-recorder events. The taxonomy covers
// every "significant" cluster transition: if an operator would want it
// on an incident timeline, it has a kind here.
type EventKind uint8

const (
	EvNone EventKind = iota
	EvRoleChange
	EvDemotion
	EvFencing
	EvAlarm
	EvFaultFire
	EvSegmentSeal
	EvSegmentTrim
	EvSegmentQuarantine
	EvTailerRebootstrap
	EvBuilderLag
	EvWatermarkFence
	EvAbort
	EvKill
	EvRestart
	EvResurrect
)

var eventKindNames = [...]string{
	EvNone:              "none",
	EvRoleChange:        "role_change",
	EvDemotion:          "demotion",
	EvFencing:           "fencing",
	EvAlarm:             "alarm",
	EvFaultFire:         "fault_fire",
	EvSegmentSeal:       "segment_seal",
	EvSegmentTrim:       "segment_trim",
	EvSegmentQuarantine: "segment_quarantine",
	EvTailerRebootstrap: "tailer_rebootstrap",
	EvBuilderLag:        "builder_lag",
	EvWatermarkFence:    "watermark_fence",
	EvAbort:             "abort",
	EvKill:              "kill",
	EvRestart:           "restart",
	EvResurrect:         "resurrect",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one flight-recorder entry. At is Now() nanoseconds; Pos
// carries a log position or epoch when relevant (0 otherwise); Detail
// is free-form and should be a pre-existing string on hot paths so
// recording stays allocation-free.
type Event struct {
	Seq    uint64 // per-ring sequence, 1-based, never reused
	At     int64
	Node   string
	Kind   EventKind
	Pos    uint64
	Detail string
}

// DefaultFlightEvents bounds the per-node ring when no size is given.
const DefaultFlightEvents = 512

// Flight is the per-node black-box recorder: a fixed ring of the last
// N significant events. Record claims a slot with one atomic add —
// writers never contend on a shared lock (only on the same slot one
// full lap apart) and never allocate, so the recorder stays on in
// production. The ring is bounded: old events are overwritten, never
// dropped on the way in.
type Flight struct {
	node  string
	seq   atomic.Uint64
	slots []flightSlot
}

type flightSlot struct {
	mu sync.Mutex
	ev Event
}

// NewFlight returns a recorder for the named node. size bounds the
// ring (DefaultFlightEvents if <= 0).
func NewFlight(node string, size int) *Flight {
	if size <= 0 {
		size = DefaultFlightEvents
	}
	return &Flight{node: node, slots: make([]flightSlot, size)}
}

// Node returns the node identity the ring records for.
func (f *Flight) Node() string {
	if f == nil {
		return ""
	}
	return f.node
}

// Record appends one event. Safe from any goroutine; nil receiver is a
// no-op so call sites need no guards. Zero allocations when detail is
// a pre-existing string.
func (f *Flight) Record(k EventKind, pos uint64, detail string) {
	if f == nil {
		return
	}
	seq := f.seq.Add(1)
	at := Now()
	s := &f.slots[(seq-1)%uint64(len(f.slots))]
	s.mu.Lock()
	s.ev = Event{Seq: seq, At: at, Node: f.node, Kind: k, Pos: pos, Detail: detail}
	s.mu.Unlock()
}

// Recordf is Record with formatting — for rare events (alarms,
// quarantines) where the allocation is irrelevant.
func (f *Flight) Recordf(k EventKind, pos uint64, format string, args ...any) {
	if f == nil {
		return
	}
	f.Record(k, pos, fmt.Sprintf(format, args...))
}

// Total returns how many events have ever been recorded (>= retained).
func (f *Flight) Total() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Load()
}

// Events returns the retained events, oldest first.
func (f *Flight) Events() []Event {
	if f == nil {
		return nil
	}
	hi := f.seq.Load()
	lo := uint64(1)
	if n := uint64(len(f.slots)); hi > n {
		lo = hi - n + 1
	}
	out := make([]Event, 0, hi-lo+1)
	for i := range f.slots {
		f.slots[i].mu.Lock()
		ev := f.slots[i].ev
		f.slots[i].mu.Unlock()
		// Writers may have lapped past hi since we loaded it; keep
		// whatever the slot holds as long as it is a real event.
		if ev.Seq >= lo && ev.Seq != 0 {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Merge combines rings from many nodes into one causally-ordered
// timeline. All in-process rings share the Now() clock, so timestamp
// order is causal order; ties break by node then sequence.
func Merge(flights ...*Flight) []Event {
	var all []Event
	for _, f := range flights {
		all = append(all, f.Events()...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		if all[i].Node != all[j].Node {
			return all[i].Node < all[j].Node
		}
		return all[i].Seq < all[j].Seq
	})
	return all
}

// FormatTimeline renders events as a readable incident report, one
// line per event, timestamps relative to the first event.
func FormatTimeline(events []Event) string {
	if len(events) == 0 {
		return "(flight recorder empty)"
	}
	base := events[0].At
	var b strings.Builder
	fmt.Fprintf(&b, "flight timeline: %d events\n", len(events))
	for _, e := range events {
		fmt.Fprintf(&b, "%+12.3fms  %-12s %-18s", float64(e.At-base)/1e6, e.Node, e.Kind.String())
		if e.Pos != 0 {
			fmt.Fprintf(&b, " pos=%d", e.Pos)
		}
		if e.Detail != "" {
			fmt.Fprintf(&b, " %s", e.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
