package txlog

import "context"

// Reader is a tailing cursor over a log's committed entries. Replicas hold
// one reader each and stream the replication records into their engine.
// Every read re-verifies the record's append-time CRC before returning
// it: a reader can never hand out a torn or bit-rotted payload — a
// mismatch quarantines the segment and the read fails with
// ErrCorruptSegment, cursor unchanged.
type Reader struct {
	log *Log
	pos uint64 // Seq of the last entry returned
}

// NewReader returns a reader positioned after from (pass ZeroID to read
// from the beginning, or a snapshot's log position to replay the suffix).
func (l *Log) NewReader(from EntryID) *Reader {
	return &Reader{log: l, pos: from.Seq}
}

// Position returns the ID of the last entry this reader consumed.
func (r *Reader) Position() EntryID { return EntryID{Seq: r.pos} }

// TryNext returns the next committed entry without blocking — the one
// place an entry is read. ok=false with a nil error means the reader has
// consumed every committed entry: the control signal that makes a replica
// eligible for promotion (§4.1.2). During a service outage (or a
// below-quorum zone set) it fails with the transient ErrUnavailable: the
// cursor is unchanged, so the caller reconnects by simply retrying later —
// no gaps, no duplicates. A cursor behind the trim point fails with
// ErrTrimmed and a cursor entering a quarantined segment with
// ErrCorruptSegment — both fatal: the caller re-bootstraps from a snapshot
// instead of retrying. A destroyed log (Service.DeleteLog) fails with
// ErrNoSuchLog: nothing will ever be readable again.
func (r *Reader) TryNext() (Entry, bool, error) {
	l := r.log
	if err := l.svc.readErr(); err != nil {
		return Entry{}, false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.pos < l.trimBase() {
		return Entry{}, false, ErrTrimmed
	}
	if l.closed {
		return Entry{}, false, ErrNoSuchLog
	}
	if r.pos >= l.committed {
		return Entry{}, false, nil
	}
	seq := r.pos + 1
	s := l.segFor(seq)
	if s == nil {
		return Entry{}, false, ErrTrimmed
	}
	if !l.verifyRecordLocked(s, seq) {
		return Entry{}, false, ErrCorruptSegment
	}
	r.pos = seq
	return *s.entry(seq), true, nil
}

// closedCh is what Ready returns when TryNext has an answer right now.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Ready returns a channel that is closed once TryNext has something other
// than "nothing yet" to say: already closed when the cursor is behind the
// committed tail or the trim base or the log is destroyed, otherwise the
// log's subscriber signal, which a commit closes notifyEvery later — asked
// for and read under the log mutex, so a commit racing the call schedules
// the wake-up of the returned channel and can never be missed. A service
// outage is not a signal: TryNext keeps failing with ErrUnavailable on a
// closed Ready, and the caller backs off.
func (r *Reader) Ready() <-chan struct{} {
	l := r.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.pos < l.committed || r.pos < l.trimBase() || l.closed {
		return closedCh
	}
	l.notifyWanted = true
	return l.notify
}

// Next blocks until TryNext delivers an entry or fails, or the context is
// cancelled.
func (r *Reader) Next(ctx context.Context) (Entry, error) {
	for {
		if e, ok, err := r.TryNext(); ok || err != nil {
			return e, err
		}
		select {
		case <-r.Ready():
		case <-ctx.Done():
			return Entry{}, ctx.Err()
		}
	}
}
