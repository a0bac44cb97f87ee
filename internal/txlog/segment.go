package txlog

import (
	"encoding/binary"
	"hash/crc32"
)

// Segmented storage. The log is a chain of segments:
// the last one is active and accepts appends; when it crosses the
// configured size/entry threshold it closes (no further appends) and,
// once its every entry has committed, seals — the footer checksum over
// its per-record CRC index is computed and the segment becomes
// immutable. Only whole sealed segments are ever trimmed, so the trim
// point is always a segment boundary and ChecksumAt stays answerable at
// every retained position. Each record carries a CRC32 computed at
// append time over its identity and payload; every read re-verifies it,
// and a mismatch quarantines the whole segment (the sealed-file model:
// one bad block condemns the file, recovery falls back to a snapshot
// plus the intact suffix).
type segment struct {
	base    uint64   // Seq of the entry preceding the first entry here
	entries []Entry  // entries[i] has Seq base+1+i
	cums    []uint64 // running log checksum after committing entries[i]
	crcs    []uint32 // per-record CRC32, fixed at append time
	bytes   int64    // payload bytes held

	closed bool // rotation happened: no further appends land here
	sealed bool // footer computed over a fully committed segment
	footer uint32

	// quarantined marks a segment in which a record failed CRC
	// verification: every read from it fails with ErrCorruptSegment.
	quarantined bool
}

// minSeq / maxSeq are the segment's EntryID index: the inclusive bounds
// of the sequence range it holds. An empty active segment has
// minSeq > maxSeq.
func (s *segment) minSeq() uint64 { return s.base + 1 }
func (s *segment) maxSeq() uint64 { return s.base + uint64(len(s.entries)) }

func (s *segment) contains(seq uint64) bool { return seq > s.base && seq <= s.maxSeq() }

func (s *segment) entry(seq uint64) *Entry { return &s.entries[seq-s.base-1] }
func (s *segment) crc(seq uint64) uint32   { return s.crcs[seq-s.base-1] }
func (s *segment) cum(seq uint64) uint64   { return s.cums[seq-s.base-1] }

var crc32Table = crc32.MakeTable(crc32.Castagnoli)

// recordCRC is the per-record integrity checksum stored alongside every
// entry at append time. It covers the sequence number, type, writer
// epoch, piggybacked watermark and payload, so both payload rot and
// record misplacement are detectable on read.
// hdr is scratch for the fixed fields (the log's, under mu): crc32.Update
// calls through a function value, so a local buffer would escape per call.
func recordCRC(e *Entry, hdr *[29]byte) uint32 {
	binary.BigEndian.PutUint64(hdr[0:], e.ID.Seq)
	hdr[8] = byte(e.Type)
	binary.BigEndian.PutUint64(hdr[9:], e.Epoch)
	binary.BigEndian.PutUint32(hdr[17:], e.Records)
	binary.BigEndian.PutUint64(hdr[21:], e.Watermark)
	sum := crc32.Update(0, crc32Table, hdr[:])
	return crc32.Update(sum, crc32Table, e.Payload)
}

// computeFooter hashes the segment's bounds and its full record-CRC
// index — a cheap whole-segment summary a restart verifies without
// re-reading payloads (payload integrity is the per-record CRCs).
func (s *segment) computeFooter() uint32 {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], s.base)
	sum := crc32.Update(0, crc32Table, b[:])
	binary.BigEndian.PutUint64(b[:], s.maxSeq())
	sum = crc32.Update(sum, crc32Table, b[:])
	var cb [4]byte
	for _, c := range s.crcs {
		binary.BigEndian.PutUint32(cb[:], c)
		sum = crc32.Update(sum, crc32Table, cb[:])
	}
	return sum
}

// verify re-checks a sealed segment end to end: footer over the CRC
// index, then every record against its CRC.
func (s *segment) verify(hdr *[29]byte) bool {
	if s.computeFooter() != s.footer {
		return false
	}
	for i := range s.entries {
		if recordCRC(&s.entries[i], hdr) != s.crcs[i] {
			return false
		}
	}
	return true
}

// SegmentStats is the log's segment-lifecycle counter surface, exported
// through INFO `# Robustness` and Prometheus (bounded-log gate).
type SegmentStats struct {
	// LiveSegments / SealedLive / LiveEntries / LiveBytes describe what
	// the log currently holds (the active segment included).
	LiveSegments int
	SealedLive   int
	LiveEntries  int
	LiveBytes    int64
	// Sealed / Trimmed / EntriesTrimmed / Quarantined are lifetime
	// lifecycle totals.
	Sealed         int64
	Trimmed        int64
	EntriesTrimmed int64
	Quarantined    int64
	// SealsDeferred / TrimsDeferred count lifecycle steps aborted by an
	// injected fault (txlog.seal.pre / txlog.trim.pre) and retried later.
	SealsDeferred int64
	TrimsDeferred int64
	// TornTruncated counts assigned-but-uncommitted entries dropped by
	// RecoverChain's torn-tail truncation.
	TornTruncated int64
}

// SegmentStats returns the log's segment lifecycle counters.
func (l *Log) SegmentStats() SegmentStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := SegmentStats{
		LiveSegments:   len(l.segs),
		Sealed:         l.sealedTotal,
		Trimmed:        l.trimmedTotal,
		EntriesTrimmed: l.entriesTrimmed,
		Quarantined:    l.quarantinedTotal,
		SealsDeferred:  l.sealsDeferred,
		TrimsDeferred:  l.trimsDeferred,
		TornTruncated:  l.tornTruncated,
	}
	for _, s := range l.segs {
		st.LiveEntries += len(s.entries)
		st.LiveBytes += s.bytes
		if s.sealed {
			st.SealedLive++
		}
	}
	return st
}
