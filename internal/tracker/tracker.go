// Package tracker is a sequence gate: waiters park at a log seq and are
// delivered, in seq order, once a watermark reaches it. A replica's read
// gate parks linearizable reads on one until the applied position covers
// the committed tail they captured (paper §3.2's consistent replica
// reads). The primary's client-blocking layer does not use it: its
// workloop releases each reply from the log entry that carries it.
package tracker

import "sync"

// Tracker gates deliveries on a watermark over log seqs. It is safe for
// concurrent use: reads park on it from their connections' goroutines
// while the workloop advances it and a stopping node aborts it.
type Tracker struct {
	mu sync.Mutex
	// pending holds gated deliveries in ascending seq order, equal seqs in
	// registration order.
	pending []gated
	// spare is the array pending does not occupy: Commit moves what stays
	// gated there and swaps the two, so a steady register/commit cycle
	// allocates nothing. Nil while a Commit still delivers out of it, outside
	// mu: a racing registration must not overwrite an undelivered entry.
	spare []gated
	// committed is the watermark: every seq <= committed has been
	// reached.
	committed uint64
	aborted   bool
}

type gated struct {
	seq     uint64
	deliver func(aborted bool)
}

// New returns an empty tracker with the watermark at start.
func New(start uint64) *Tracker {
	return &Tracker{committed: start}
}

// RegisterWrite gates deliver until seq is reached. deliver is invoked
// exactly once — immediately if seq already is, else on Commit or Abort
// (aborted=true means seq was never reached and the waiter must see an
// error, not success). keys is unused: it names what the waiter wrote,
// for callers that register a log entry's replies.
func (t *Tracker) RegisterWrite(seq uint64, keys []string, deliver func(aborted bool)) {
	t.mu.Lock()
	if !t.aborted && seq > t.committed {
		t.insertLocked(gated{seq: seq, deliver: deliver})
		t.mu.Unlock()
		return
	}
	aborted := t.aborted
	t.mu.Unlock()
	deliver(aborted)
}

// insertLocked keeps pending sorted by seq. Appends are the common case;
// reads gated at an older seq need an insertion scan from the tail.
func (t *Tracker) insertLocked(g gated) {
	i := len(t.pending)
	for i > 0 && t.pending[i-1].seq > g.seq {
		i--
	}
	t.pending = append(t.pending, gated{})
	copy(t.pending[i+1:], t.pending[i:])
	t.pending[i] = g
}

// Commit advances the watermark to seq (the log commits and a replica
// applies in order, so reaching seq implies everything below it) and
// delivers every waiter gated at or below it.
func (t *Tracker) Commit(seq uint64) {
	t.mu.Lock()
	if seq <= t.committed || t.aborted {
		t.mu.Unlock()
		return
	}
	t.committed = seq
	i := 0
	for i < len(t.pending) && t.pending[i].seq <= seq {
		i++
	}
	release := t.pending[:i]
	if i > 0 {
		t.pending, t.spare = append(t.spare[:0], t.pending[i:]...), nil
	}
	t.mu.Unlock()
	if i == 0 {
		return
	}
	for k := range release {
		release[k].deliver(false)
		release[k] = gated{}
	}
	t.mu.Lock()
	if t.spare == nil {
		t.spare = release[:0]
	}
	t.mu.Unlock()
}

// Abort fails every gated waiter: the watermark will not advance again (the
// node stopped). Subsequent registrations also deliver aborted.
func (t *Tracker) Abort() {
	t.mu.Lock()
	if t.aborted {
		t.mu.Unlock()
		return
	}
	t.aborted = true
	release := t.pending
	t.pending = nil
	t.mu.Unlock()
	for _, g := range release {
		g.deliver(true)
	}
}

// Committed returns the watermark.
func (t *Tracker) Committed() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.committed
}

// PendingCount returns the number of gated deliveries (metrics/tests).
func (t *Tracker) PendingCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}
