package core

import (
	"context"
	"errors"

	"memorydb/internal/election"
	"memorydb/internal/resp"
	"memorydb/internal/txlog"
)

// errNotPrimaryErr is the Go-level counterpart of the -READONLY reply for
// control-plane callers.
var errNotPrimaryErr = errors.New("core: not the primary")

// DumpSlot is the source's half of a slot move (paper §5.2): it returns,
// for each key in slot, the commands that recreate it
// (engine.DumpCommands), with the log position and running checksum the
// dump stands at. It runs as one workloop turn behind a flush and refuses
// on a node that is not primary, so the dump reflects every mutation at
// or below pos and none above it: replaying the shard's log after pos,
// seeded with sum, carries the copy forward while the source keeps
// serving. Ownership transfer itself is coordinated by the cluster layer
// with 2PC records in the transaction logs.
func (n *Node) DumpSlot(ctx context.Context, slot uint16) (pos txlog.EntryID, sum uint64, dump [][][][]byte, err error) {
	err = n.run(ctx, func() error {
		var err error
		pos, sum, dump, err = n.dumpSlotTurn(slot)
		return err
	})
	return pos, sum, dump, err
}

// dumpSlotTurn is DumpSlot's turn on the workloop.
func (n *Node) dumpSlotTurn(slot uint16) (txlog.EntryID, uint64, [][][][]byte, error) {
	// A flush failure demotes, so the role is read after it.
	n.flushPending()
	if n.Role() != election.RolePrimary {
		return txlog.ZeroID, 0, nil, errNotPrimaryErr
	}
	var dump [][][][]byte
	for _, key := range n.eng.DB().SlotKeys(slot) {
		if cmds := n.eng.DumpCommands(key); len(cmds) > 0 {
			dump = append(dump, cmds)
		}
	}
	return n.lastIssued, n.runningChecksum, dump, nil
}

// SetSlotGate installs (or clears, with nil) the slot admission check
// consulted before executing client commands. The cluster layer uses it
// for MOVED redirects, CROSSSLOT validation, and the brief write block
// during slot ownership transfer. Call it before Start: the workloop
// reads the gate without a lock.
func (n *Node) SetSlotGate(gate func(name string, keys [][]byte, writing bool) (resp.Value, bool)) {
	n.slotGate = gate
}

// AppendControl appends a control entry (slot 2PC messages etc.) through
// the primary's append chain, returning once it is durably committed. It
// runs on the workloop behind a flush, so a control entry never overtakes
// the mutations buffered ahead of it.
func (n *Node) AppendControl(ctx context.Context, typ txlog.EntryType, payload []byte) (txlog.EntryID, error) {
	answered := make(chan error, 1)
	e := &issuedEntry{control: answered}
	if err := n.run(ctx, func() error { return n.controlTurn(typ, payload, e) }); err != nil {
		return txlog.ZeroID, err
	}
	select {
	case err := <-answered:
		return e.p.ID(), err
	case <-ctx.Done():
		return txlog.ZeroID, ctx.Err()
	case <-n.stopCtx.Done():
		return txlog.ZeroID, ErrStopped
	}
}

// controlTurn is AppendControl's turn on the workloop: it issues e, the
// control entry, behind a flush.
func (n *Node) controlTurn(typ txlog.EntryType, payload []byte, e *issuedEntry) error {
	// A flush failure demotes, so the role is read after it.
	n.flushPending()
	if n.Role() != election.RolePrimary {
		return errNotPrimaryErr
	}
	// Fenced or retried out the lease: the sequencer stepped down.
	return n.sequence(txlog.Entry{Type: typ, Payload: payload}, &n.stats.AppendsRetried, e)
}

// LeaseReleasePayload marks a voluntary leadership hand-over: replicas
// observing it skip the backoff and campaign immediately, minimizing
// write unavailability during collaborative transfers (§5.2 instance
// scaling, §5.1 N+1 upgrades).
var LeaseReleasePayload = []byte("lease-release")

// StepDown performs a collaborative leadership transfer: the primary
// appends a lease-release entry and, once it is durably committed, demotes
// itself on the workloop. It returns once the node has demoted (or failed
// if it was not primary).
func (n *Node) StepDown(ctx context.Context) error {
	if _, err := n.AppendControl(ctx, txlog.EntryControl, LeaseReleasePayload); err != nil {
		return err
	}
	return n.run(ctx, func() error { n.demote(); return nil })
}

// SlotKeys returns the keys currently stored in slot: a scan of the
// slot's 1/64 of the keyspace on the workloop, so a caller working
// through a slot takes the list once and polls SlotKeyCount.
func (n *Node) SlotKeys(ctx context.Context, slot uint16) ([]string, error) {
	var keys []string
	if err := n.run(ctx, func() error {
		keys = n.eng.DB().SlotKeys(slot)
		return nil
	}); err != nil {
		return nil, err
	}
	return keys, nil
}

// SlotKeyCount returns the number of keys in slot, in O(1).
func (n *Node) SlotKeyCount(ctx context.Context, slot uint16) (int, error) {
	var count int
	if err := n.run(ctx, func() error {
		count = n.eng.DB().SlotCount(slot)
		return nil
	}); err != nil {
		return 0, err
	}
	return count, nil
}
