package obs

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Options parameterizes a Metrics instance. The zero value is usable:
// a 10ms slowlog threshold, 128-entry slowlog.
type Options struct {
	// SlowlogThreshold: commands slower than this end-to-end are noted
	// in the slowlog. <=0 uses the 10ms default; use a huge value to
	// effectively disable.
	SlowlogThreshold time.Duration
	// SlowlogSize bounds the slowlog ring (default 128).
	SlowlogSize int
}

// Metrics is the shared observability registry: fixed per-stage
// histograms, a per-command histogram map, named histograms and counter
// callbacks registered by other layers for export, plus the slowlog.
// One instance is shared by the server front-end, the node,
// and the log service so INFO, the RESP commands, and /metrics all read
// the same data.
type Metrics struct {
	stages [NumStages]Histogram

	cmdMu sync.RWMutex
	cmds  map[string]*Histogram

	regMu  sync.Mutex
	named  []NamedHistogram
	values []series

	// Slow is the slowlog; always non-nil on instances from New.
	Slow *Slowlog
}

// NamedHistogram is a histogram registered for export under an explicit
// metric name (e.g. per-AZ append latency, snapshot build duration).
type NamedHistogram struct {
	// Name is the bare metric name; Prometheus exposition prefixes
	// "memorydb_" and suffixes "_duration_seconds".
	Name string
	// Label is an optional single `key="value"` pair.
	Label string
	H     *Histogram
}

// series is a value exported by callback, letting existing atomic
// counters (core.Stats and friends) appear in /metrics without changing
// how they are recorded: a counter (monotonic) or a gauge
// (instantaneous: queue depths, imbalance ratios).
type series struct {
	name, label string
	counter     bool
	fn          func() int64
}

// New creates a Metrics registry.
func New(opts Options) *Metrics {
	if opts.SlowlogThreshold <= 0 {
		opts.SlowlogThreshold = 10 * time.Millisecond
	}
	if opts.SlowlogSize <= 0 {
		opts.SlowlogSize = 128
	}
	return &Metrics{
		cmds: make(map[string]*Histogram),
		Slow: newSlowlog(opts.SlowlogThreshold, opts.SlowlogSize),
	}
}

// Stage returns the histogram for one write-path stage.
func (m *Metrics) Stage(s Stage) *Histogram {
	if m == nil || s < 0 || s >= NumStages {
		return nil
	}
	return &m.stages[s]
}

// Command returns (creating on first use) the end-to-end latency
// histogram for one command name. The read path is a shared-lock map
// hit with no allocation.
func (m *Metrics) Command(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.cmdMu.RLock()
	h := m.cmds[name]
	m.cmdMu.RUnlock()
	if h != nil {
		return h
	}
	m.cmdMu.Lock()
	defer m.cmdMu.Unlock()
	if m.cmds == nil {
		m.cmds = make(map[string]*Histogram)
	}
	if h = m.cmds[name]; h == nil {
		h = &Histogram{}
		m.cmds[name] = h
	}
	return h
}

// EachCommand calls fn for every per-command histogram in sorted name
// order.
func (m *Metrics) EachCommand(fn func(name string, h *Histogram)) {
	if m == nil {
		return
	}
	m.cmdMu.RLock()
	names := make([]string, 0, len(m.cmds))
	hists := make(map[string]*Histogram, len(m.cmds))
	for n, h := range m.cmds {
		names = append(names, n)
		hists[n] = h
	}
	m.cmdMu.RUnlock()
	sort.Strings(names)
	for _, n := range names {
		fn(n, hists[n])
	}
}

// RegisterHistogram exposes an externally-owned histogram (per-AZ append
// latency, snapshot build time, …) in Prometheus exposition.
func (m *Metrics) RegisterHistogram(name, label string, h *Histogram) {
	if m == nil || h == nil {
		return
	}
	m.regMu.Lock()
	m.named = append(m.named, NamedHistogram{Name: name, Label: label, H: h})
	m.regMu.Unlock()
}

// Named returns (creating and registering on first use) a histogram
// owned by the registry under the given metric name with no label.
func (m *Metrics) Named(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.regMu.Lock()
	defer m.regMu.Unlock()
	for _, nh := range m.named {
		if nh.Name == name && nh.Label == "" {
			return nh.H
		}
	}
	h := &Histogram{}
	m.named = append(m.named, NamedHistogram{Name: name, H: h})
	return h
}

// RegisterCounter exposes a monotonic counter by callback.
func (m *Metrics) RegisterCounter(name, label string, fn func() int64) {
	m.register(series{name, label, true, fn})
}

// RegisterGauge exposes an instantaneous value by callback.
func (m *Metrics) RegisterGauge(name, label string, fn func() int64) {
	m.register(series{name, label, false, fn})
}

func (m *Metrics) register(s series) {
	if m == nil || s.fn == nil {
		return
	}
	m.regMu.Lock()
	m.values = append(m.values, s)
	m.regMu.Unlock()
}

// Unregister drops every series registered under label, and with their
// callbacks what they reach.
func (m *Metrics) Unregister(label string) {
	if m == nil {
		return
	}
	m.regMu.Lock()
	defer m.regMu.Unlock()
	m.named = slices.DeleteFunc(m.named, func(h NamedHistogram) bool { return h.Label == label })
	m.values = slices.DeleteFunc(m.values, func(s series) bool { return s.label == label })
}

// registered copies one of m's registered lists.
func registered[T any](m *Metrics, list *[]T) []T {
	m.regMu.Lock()
	defer m.regMu.Unlock()
	return append([]T(nil), *list...)
}

// FinishCommand records a completed command: end-to-end and per-command
// histograms and the slowlog check. The stage inputs are nanoseconds;
// commit time — everything between engine execution and reply delivery
// (batch wait, append, quorum, release) — is derived as total-queue-exec.
// The trailing int is unused: it named an execution shard, and the
// benchmark module (benchmark/ladder.go) still passes one. With the
// command under the slowlog threshold this path performs zero allocations.
func (m *Metrics) FinishCommand(name string, argv [][]byte, totalNanos, queueNanos, execNanos int64, _ int) {
	if m == nil {
		return
	}
	m.stages[StageE2E].ObserveNanos(totalNanos)
	if name != "" {
		m.Command(name).ObserveNanos(totalNanos)
	}
	commit := totalNanos - queueNanos - execNanos
	if commit < 0 {
		commit = 0
	}
	m.Slow.maybeNote(name, argv, totalNanos, queueNanos, execNanos, commit)
}

// ResetLatency zeroes every stage and per-command histogram (the RESP
// `LATENCY RESET` operation).
func (m *Metrics) ResetLatency() {
	if m == nil {
		return
	}
	for i := range m.stages {
		m.stages[i].Reset()
	}
	m.cmdMu.RLock()
	for _, h := range m.cmds {
		h.Reset()
	}
	m.cmdMu.RUnlock()
}
