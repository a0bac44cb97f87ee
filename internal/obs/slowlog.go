package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SlowEntry is one slowlog record: a command whose end-to-end latency
// crossed the threshold, with its stage breakdown for attribution.
type SlowEntry struct {
	// ID is a monotonically increasing sequence number (survives ring
	// eviction, so operators can detect gaps).
	ID int64
	// At is the wall-clock completion time.
	At time.Time
	// Cmd is the uppercase command name; Args are the arguments
	// (truncated copies — the originals belong to the connection).
	Cmd  string
	Args []string
	// Total is end-to-end; Queue/Exec/Commit decompose it into workloop
	// queue wait, engine execution, and everything durability-related
	// after execution (batch residency + append + quorum + release).
	Total, Queue, Exec, Commit time.Duration
}

// Slowlog is a bounded ring of slow commands. The fast path — checking
// a command below threshold — is one atomic load.
type Slowlog struct {
	threshold atomic.Int64 // nanoseconds
	total     atomic.Int64 // entries ever recorded (including evicted)

	mu      sync.Mutex
	ring    []SlowEntry
	nextIdx int
	filled  bool
	nextID  int64
}

const slowlogMaxArgs = 8
const slowlogMaxArgLen = 64

func newSlowlog(threshold time.Duration, size int) *Slowlog {
	s := &Slowlog{ring: make([]SlowEntry, size)}
	s.threshold.Store(int64(threshold))
	return s
}

// Threshold returns the current slowlog threshold.
func (s *Slowlog) Threshold() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.threshold.Load())
}

// SetThreshold updates the threshold; <=0 disables the slowlog.
func (s *Slowlog) SetThreshold(d time.Duration) {
	if s == nil {
		return
	}
	s.threshold.Store(int64(d))
}

// Total returns how many entries were ever recorded, including ones
// evicted from the ring.
func (s *Slowlog) Total() int64 {
	if s == nil {
		return 0
	}
	return s.total.Load()
}

// Len returns the number of entries currently held.
func (s *Slowlog) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.filled {
		return len(s.ring)
	}
	return s.nextIdx
}

// maybeNote records the command if it crossed the threshold.
func (s *Slowlog) maybeNote(name string, argv [][]byte, total, queue, exec, commit int64) {
	if s == nil {
		return
	}
	thr := s.threshold.Load()
	if thr <= 0 || total < thr {
		return
	}
	var args []string
	n := len(argv)
	if n > slowlogMaxArgs {
		n = slowlogMaxArgs
	}
	if n > 0 {
		args = make([]string, n)
		for i := 0; i < n; i++ {
			a := argv[i]
			if len(a) > slowlogMaxArgLen {
				a = a[:slowlogMaxArgLen]
			}
			args[i] = string(a)
		}
	}
	e := SlowEntry{
		At:     time.Now(),
		Cmd:    name,
		Args:   args,
		Total:  time.Duration(total),
		Queue:  time.Duration(queue),
		Exec:   time.Duration(exec),
		Commit: time.Duration(commit),
	}
	s.total.Add(1)
	s.mu.Lock()
	e.ID = s.nextID
	s.nextID++
	s.ring[s.nextIdx] = e
	s.nextIdx++
	if s.nextIdx == len(s.ring) {
		s.nextIdx = 0
		s.filled = true
	}
	s.mu.Unlock()
}

// Recent returns up to n entries, newest first.
func (s *Slowlog) Recent(n int) []SlowEntry {
	if s == nil || n <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	have := s.nextIdx
	if s.filled {
		have = len(s.ring)
	}
	if n > have {
		n = have
	}
	out := make([]SlowEntry, 0, n)
	idx := s.nextIdx
	for i := 0; i < n; i++ {
		idx--
		if idx < 0 {
			idx = len(s.ring) - 1
		}
		out = append(out, s.ring[idx])
	}
	return out
}

// Reset drops all entries (keeps the threshold and total counter).
func (s *Slowlog) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.nextIdx = 0
	s.filled = false
	s.mu.Unlock()
}
