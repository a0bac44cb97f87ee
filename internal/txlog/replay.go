package txlog

import (
	"errors"
	"fmt"
)

// Sentinel errors of log replay, matched with errors.Is by every consumer.
var (
	// ErrUpgradeStall reports a data entry stamped by a newer engine
	// version than the one replaying it (§7.1): the consumer must stop at
	// the entry before it rather than misinterpret records it cannot
	// parse. Everything replayed up to that point stays valid.
	ErrUpgradeStall = errors.New("txlog: entry from a newer engine version; replay stopped")
	// ErrChecksumMismatch reports that the checksum chained over the
	// replayed data payloads disagrees with one the log recorded (§7.2.1):
	// the state being rebuilt is not the state the writer had.
	ErrChecksumMismatch = errors.New("txlog: running checksum does not match the log")
)

// Replayer is the one rule for consuming a log entry, shared by the
// three materializers of the log — the replica tailer, restore and the
// snapshot builder, whose rebuild after each full is that snapshot's
// restore rehearsal. It carries the replaying engine's
// version and the running checksum of the prefix consumed so far, so a
// consumer seeded from a snapshot's LogChecksum keeps verifying as it
// moves from restore into tailing.
type Replayer struct {
	version uint32
	sum     uint64
}

// NewReplayer returns a replayer for an engine at engineVersion whose
// state already reflects a log prefix with running checksum sum (zero
// for an empty prefix, a snapshot's LogChecksum after a restore).
func NewReplayer(engineVersion uint32, sum uint64) *Replayer {
	return &Replayer{version: engineVersion, sum: sum}
}

// Sum returns the running checksum over every data payload consumed.
func (r *Replayer) Sum() uint64 { return r.sum }

// Step consumes one entry. A data entry is refused with ErrUpgradeStall
// when a newer engine wrote it, otherwise handed to apply and chained
// into the running checksum; a checksum entry is compared against the
// running value (ErrChecksumMismatch); every other type carries no
// keyspace mutation and is skipped. An entry that fails leaves the
// replayer unchanged.
func (r *Replayer) Step(e Entry, apply func(Entry) error) error {
	switch e.Type {
	case EntryData:
		if e.EngineVersion > r.version {
			return fmt.Errorf("%w: %v written by v%d, replaying as v%d", ErrUpgradeStall, e.ID, e.EngineVersion, r.version)
		}
		if err := apply(e); err != nil {
			return fmt.Errorf("txlog: apply %v: %w", e.ID, err)
		}
		r.sum = ChainChecksum(r.sum, e.Payload)
	case EntryChecksum:
		if logged := DecodeChecksumPayload(e.Payload); logged != r.sum {
			return fmt.Errorf("%w at %v: replayed %#x, log recorded %#x", ErrChecksumMismatch, e.ID, r.sum, logged)
		}
	}
	return nil
}

// Range steps through log's committed entries in (from, to] and returns
// the position of the last entry consumed — to on success, the entry
// before the failing one otherwise, so a caller may keep the prefix.
func (r *Replayer) Range(log *Log, from, to EntryID, apply func(Entry) error) (EntryID, error) {
	rd := log.NewReader(from)
	for from.Less(to) {
		e, ok, err := rd.TryNext()
		if err != nil {
			return from, err
		}
		if !ok {
			return from, fmt.Errorf("txlog: %v is not committed (tail %v)", to, from)
		}
		if err := r.Step(e, apply); err != nil {
			return from, err
		}
		from = e.ID
	}
	return from, nil
}
