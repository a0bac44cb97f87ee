package store

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// StreamID is a Redis stream entry ID: millisecond timestamp + sequence.
type StreamID struct {
	Ms  uint64
	Seq uint64
}

// String renders the canonical "ms-seq" form.
func (id StreamID) String() string {
	return strconv.FormatUint(id.Ms, 10) + "-" + strconv.FormatUint(id.Seq, 10)
}

// Less orders stream IDs.
func (id StreamID) Less(o StreamID) bool {
	if id.Ms != o.Ms {
		return id.Ms < o.Ms
	}
	return id.Seq < o.Seq
}

// Next returns the smallest ID strictly greater than id.
func (id StreamID) Next() StreamID {
	if id.Seq == ^uint64(0) {
		return StreamID{Ms: id.Ms + 1, Seq: 0}
	}
	return StreamID{Ms: id.Ms, Seq: id.Seq + 1}
}

// ErrBadStreamID reports an unparsable stream ID.
var ErrBadStreamID = errors.New("invalid stream ID")

// ParseStreamID parses "ms-seq" or "ms" (seq defaults to defSeq, letting
// callers implement XRANGE's - / + inclusive bounds).
func ParseStreamID(s string, defSeq uint64) (StreamID, error) {
	if s == "-" {
		return StreamID{}, nil
	}
	if s == "+" {
		return StreamID{Ms: ^uint64(0), Seq: ^uint64(0)}, nil
	}
	msPart, seqPart, hasSeq := strings.Cut(s, "-")
	ms, err := strconv.ParseUint(msPart, 10, 64)
	if err != nil {
		return StreamID{}, fmt.Errorf("%w: %q", ErrBadStreamID, s)
	}
	seq := defSeq
	if hasSeq {
		seq, err = strconv.ParseUint(seqPart, 10, 64)
		if err != nil {
			return StreamID{}, fmt.Errorf("%w: %q", ErrBadStreamID, s)
		}
	}
	return StreamID{Ms: ms, Seq: seq}, nil
}

// StreamEntry is one entry: an ID plus an ordered field/value list.
type StreamEntry struct {
	ID     StreamID
	Fields [][]byte // flattened f1, v1, f2, v2, ...
}

// Stream is an append-only log of entries ordered by ID. Redis uses a radix
// tree of listpacks; a sorted slice preserves the same externally visible
// behaviour with O(log n) range seeks. An entry costs its fields' bytes
// and streamEntry.
type Stream struct {
	aggregate
	entries []StreamEntry
	lastID  StreamID
	// MaxDeletedID and entries-added counters exist in Redis for
	// consistency across trims; we track lastID only, which the commands
	// we support require.
}

// NewStream returns an empty stream.
func NewStream() *Stream { return &Stream{} }

// Len returns the number of live entries.
func (s *Stream) Len() int { return len(s.entries) }

// LastID returns the maximum ID ever added.
func (s *Stream) LastID() StreamID { return s.lastID }

const streamEntry = 48

// cost is what entry e costs.
func (e StreamEntry) cost() int64 {
	n := int64(streamEntry)
	for _, f := range e.Fields {
		n += int64(len(f))
	}
	return n
}

// ErrStreamIDTooSmall mirrors Redis's XADD error when an explicit ID is not
// greater than the last one.
var ErrStreamIDTooSmall = errors.New("the ID specified in XADD is equal or smaller than the target stream top item")

// Add appends an entry. If auto, the ID is generated from nowMs and the
// last ID; otherwise id must exceed the current last ID.
func (s *Stream) Add(id StreamID, auto bool, nowMs uint64, fields [][]byte) (StreamID, error) {
	if auto {
		if nowMs > s.lastID.Ms {
			id = StreamID{Ms: nowMs, Seq: 0}
		} else {
			id = s.lastID.Next()
		}
	} else if !s.lastID.Less(id) {
		return StreamID{}, ErrStreamIDTooSmall
	}
	e := StreamEntry{ID: id, Fields: fields}
	s.entries = append(s.entries, e)
	s.lastID = id
	s.charge(e.cost())
	return id, nil
}

// Range returns entries with start<=ID<=end, up to count (count<=0: all).
func (s *Stream) Range(start, end StreamID, count int) []StreamEntry {
	i := s.search(start)
	var out []StreamEntry
	for ; i < len(s.entries); i++ {
		e := s.entries[i]
		if end.Less(e.ID) {
			break
		}
		out = append(out, e)
		if count > 0 && len(out) >= count {
			break
		}
	}
	return out
}

// After returns up to count entries with ID strictly greater than id
// (XREAD semantics).
func (s *Stream) After(id StreamID, count int) []StreamEntry {
	return s.Range(id.Next(), StreamID{Ms: ^uint64(0), Seq: ^uint64(0)}, count)
}

// TrimMaxLen keeps only the newest maxLen entries, returning the number
// removed.
func (s *Stream) TrimMaxLen(maxLen int) int {
	if len(s.entries) <= maxLen {
		return 0
	}
	drop := len(s.entries) - maxLen
	for _, e := range s.entries[:drop] {
		s.charge(-e.cost())
	}
	s.entries = append([]StreamEntry(nil), s.entries[drop:]...)
	return drop
}

// Delete removes the entry with exactly id; reports whether it existed.
func (s *Stream) Delete(id StreamID) bool {
	i := s.search(id)
	if i >= len(s.entries) || s.entries[i].ID != id {
		return false
	}
	s.charge(-s.entries[i].cost())
	s.entries = append(s.entries[:i], s.entries[i+1:]...)
	return true
}

// search returns the index of the first entry with ID >= id.
func (s *Stream) search(id StreamID) int {
	lo, hi := 0, len(s.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.entries[mid].ID.Less(id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Walk visits every entry in order until fn returns false.
func (s *Stream) Walk(fn func(StreamEntry) bool) {
	for _, e := range s.entries {
		if !fn(e) {
			return
		}
	}
}
