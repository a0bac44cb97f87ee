package txlog

// Test-only surface: operations no program performs today, kept beside
// the tests that drive them.

// DeleteLog destroys the log for shardID (end of a scale-in, §5.2).
func (s *Service) DeleteLog(shardID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.logs[shardID]
	if !ok {
		return ErrNoSuchLog
	}
	l.closeAll()
	delete(s.logs, shardID)
	return nil
}

// closeAll destroys the log: readers wake to ErrNoSuchLog, appends still
// in flight fail with it, and a commit timer still armed finds nothing to
// do.
func (l *Log) closeAll() {
	l.mu.Lock()
	l.closed = true
	lost := l.inflight
	l.inflight = nil
	l.wakeReadersLocked()
	l.mu.Unlock()
	complete(lost, ErrNoSuchLog)
}

// MeanRecordsPerEntry returns Records/DataAppends (1 when no data was
// appended) — the effective group-commit amortization factor.
func (s Stats) MeanRecordsPerEntry() float64 {
	if s.DataAppends == 0 {
		return 1
	}
	return float64(s.Records) / float64(s.DataAppends)
}

// DamageRecord flips one byte of the stored payload of the entry at seq —
// at-rest bit rot after the record was written (the append-time variant
// is the txlog.corrupt_record fault site). Returns false when the
// position is trimmed/unknown or carries no payload.
func (l *Log) DamageRecord(seq uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.segFor(seq)
	if s == nil {
		return false
	}
	e := s.entry(seq)
	if len(e.Payload) == 0 {
		return false
	}
	cp := append([]byte(nil), e.Payload...)
	cp[0] ^= 0xff
	e.Payload = cp
	return true
}

// ResyncSegments eagerly copies every missed segment to a healthy zone
// (a healed zone's catch-up pass). Returns how many were copied; 0 when
// the zone is still down or already current.
func (a *AZReplica) ResyncSegments() int64 {
	if a.down() {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.segsMissing
	a.segsHeld += n
	a.segsResynced += n
	a.segsMissing = 0
	return n
}
