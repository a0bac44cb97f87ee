// Package tracker implements MemoryDB's client-blocking layer (paper
// §3.2). Because MemoryDB uses write-behind logging, a mutation executes
// on the primary before it is durable; its reply is stored here until the
// transaction log acknowledges persistence. Non-mutating operations run
// immediately but must consult the tracker: if a key they read was
// modified by a not-yet-persisted operation, their reply is delayed until
// every covering log write commits. Hazards are detected at the key level.
package tracker

import (
	"math"
	"sync"
)

// Tracker gates replies on transaction log commit progress. It is safe
// for concurrent use: a node's workloop registers writes and reads and
// reports commits, while a stopping node aborts it, and a replica's read
// gate parks reads on it, from other goroutines.
type Tracker struct {
	mu sync.Mutex
	// hazards maps key -> highest pending log seq that mutated it, and
	// newest is the highest seq any hazard holds: once it is durable, every
	// hazard is stale.
	hazards map[string]uint64
	newest  uint64
	// pending holds gated deliveries — a log entry's replies, or one read's
	// — in ascending seq order (seqs are assigned monotonically by the log,
	// so appends keep it sorted).
	pending []gated
	// spare is the array pending does not occupy: Commit moves what stays
	// gated there and swaps the two, so a steady register/commit cycle
	// allocates nothing. Nil while a Commit still delivers out of it, outside
	// mu: a racing registration must not overwrite an undelivered entry.
	spare []gated
	// committed is the durable watermark: every seq <= committed has been
	// acknowledged by the log.
	committed uint64
	aborted   bool
}

type gated struct {
	seq     uint64
	deliver func(aborted bool)
}

// New returns an empty tracker with the durable watermark at start
// (usually the log's committed tail when the node became primary).
func New(start uint64) *Tracker {
	return &Tracker{hazards: make(map[string]uint64), committed: start}
}

// RegisterWrite records that the log entry at seq touched keys, and gates
// deliver until seq commits. deliver is invoked exactly once —
// immediately if seq is somehow already durable, else on Commit or Abort
// (aborted=true means the entry never became durable and the client must
// see an error, not the buffered reply). A read waits the same way, with
// no keys, at the seq Covering gave it.
func (t *Tracker) RegisterWrite(seq uint64, keys []string, deliver func(aborted bool)) {
	t.mu.Lock()
	if !t.aborted {
		for _, k := range keys {
			if t.hazards[k] < seq {
				t.hazards[k] = seq
			}
		}
		if len(keys) > 0 {
			t.newest = max(t.newest, seq)
		}
		if seq > t.committed {
			t.insertLocked(gated{seq: seq, deliver: deliver})
			t.mu.Unlock()
			return
		}
	}
	aborted := t.aborted
	t.mu.Unlock()
	deliver(aborted)
}

// Covering returns the seq a read must wait for: the highest one not yet
// durable among seq itself (the sequencer tail for a read of the whole
// keyspace, 0 for a keyed read) and the writes registered on keys — 0 when
// everything the read can have observed is durable. An aborted tracker
// cannot say that of anything: it answers with a seq that never commits,
// so registering the read at it fails the read. keys may be views of the
// read's arguments: the tracker keeps none of them.
func (t *Tracker) Covering(seq uint64, keys [][]byte) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.aborted {
		return math.MaxUint64
	}
	for _, k := range keys {
		if h, ok := t.hazards[string(k)]; ok && h <= t.committed {
			delete(t.hazards, string(k)) // lazily clear stale hazards
		} else if h > seq {
			seq = h
		}
	}
	if seq <= t.committed {
		return 0
	}
	return seq
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

// Commit advances the durable watermark to seq (the log commits in order,
// so acknowledgement of seq implies everything below it) and delivers all
// replies gated at or below it.
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
	// Opportunistically shed stale hazards to bound the map: wholesale when
	// every one is stale (the common case, a burst of writes all durable),
	// else one by one.
	if len(t.hazards) > 1024 && t.newest <= seq {
		clear(t.hazards)
	} else if len(t.hazards) > 1024 {
		for k, s := range t.hazards {
			if s <= t.committed {
				delete(t.hazards, k)
			}
		}
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

// Abort fails every gated reply: the node lost the ability to commit
// (partition, demotion) so unacknowledged writes must not be exposed.
// Subsequent registrations also deliver aborted until the tracker is
// replaced (a demoted node resynchronizes with fresh state).
func (t *Tracker) Abort() {
	t.mu.Lock()
	if t.aborted {
		t.mu.Unlock()
		return
	}
	t.aborted = true
	release := t.pending
	t.pending = nil
	t.hazards = make(map[string]uint64)
	t.mu.Unlock()
	for _, g := range release {
		g.deliver(true)
	}
}

// Committed returns the durable watermark.
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
