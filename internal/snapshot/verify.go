package snapshot

import (
	"fmt"

	"memorydb/internal/clock"
	"memorydb/internal/engine"
	"memorydb/internal/txlog"
)

// Verify rehearses restoring the freshest snapshot chain of shardID
// (paper §7.2.1):
//
//  1. validate every link of the newest chain — full base plus each
//     delta — against its own whole-file checksum, and materialize the
//     layered keyspace; the newest tip must resolve, no falling back to
//     an older survivor;
//  2. confirm the tip's stored log checksum matches the log's running
//     checksum at the tip's positional identifier — i.e. the chain is
//     equivalent to its corresponding log prefix;
//  3. replay the subsequent transaction log exactly as a restoring node
//     would: the replayer chains the running checksum from the tip's
//     stored value and compares it against every checksum entry.
//
// Only snapshots that pass all three gates may authorize a log trim. The
// returned chain is the one judged, its DB advanced by the rehearsal; on
// failure its Tip.LogPos still names the version that failed. A failure of gate 1 or 2 is evidence
// against the snapshot (errChainDamaged); once those pass, a gate 3
// failure can only be the log disagreeing with itself.
func Verify(m *Manager, shardID string, log *txlog.Log, clk clock.Clock) (Chain, error) {
	if clk == nil {
		clk = clock.NewReal()
	}
	// Gate 1: every link's checksum is validated during chain resolution.
	chain, ok, err := m.Resolve(shardID, true)
	if err != nil {
		return chain, fmt.Errorf("snapshot: content validation failed: %w", err)
	}
	if !ok {
		return chain, fmt.Errorf("snapshot: no snapshot to verify for %q", shardID)
	}
	tip := chain.Tip
	// Gate 2: tip checksum vs the log prefix the chain claims to capture.
	want, err := log.ChecksumAt(tip.LogPos)
	if err != nil {
		return chain, fmt.Errorf("snapshot: log prefix unavailable at %v: %w", tip.LogPos, err)
	}
	if want != tip.LogChecksum {
		return chain, fmt.Errorf("%w: %w at %v: snapshot has %#x, log has %#x",
			errChainDamaged, txlog.ErrChecksumMismatch, tip.LogPos, tip.LogChecksum, want)
	}
	// Gate 3: restore rehearsal over the suffix. The replayer runs at
	// this binary's engine version, not the tip's stamp: the stamp is
	// pinned to the oldest version in the fleet (§7.1).
	eng := engine.New(clk)
	eng.ResetDB(chain.DB)
	_, err = txlog.NewReplayer(engine.Version, tip.LogChecksum).Range(log, tip.LogPos, log.CommittedTail(),
		func(e txlog.Entry) error { return eng.Apply(e.Payload) })
	if err != nil {
		return chain, fmt.Errorf("snapshot: restore rehearsal from %v: %w", tip.LogPos, err)
	}
	return chain, nil
}
