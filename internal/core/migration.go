package core

import (
	"context"
	"errors"

	"memorydb/internal/crc16"
	"memorydb/internal/election"
	"memorydb/internal/resp"
	"memorydb/internal/txlog"
)

// errNotPrimaryErr is the Go-level counterpart of the -READONLY reply for
// control-plane callers.
var errNotPrimaryErr = errors.New("core: not the primary")

// Slot migration support (paper §5.2). The source primary keeps serving
// the slot while data moves: keys are dumped on the workloop into an
// ordered stream that also carries the replication effects of concurrent
// mutations on the slot, so the target observes "serialized keys plus
// replication stream mutations of keys already transmitted" in a single
// consistent order. Ownership transfer itself is coordinated by the
// cluster layer with 2PC records in the transaction logs.

// ForwardItem is one unit of the migration stream: either a batch of
// commands recreating a dumped key, or the effects of one mutation.
type ForwardItem struct {
	// Cmds are decoded commands to apply at the target (dump path).
	Cmds [][][]byte
	// Effects is the replication record of one mutation (live path).
	Effects []byte
}

// MigrationStream receives the ordered dump+effect stream for one slot.
type MigrationStream struct {
	Slot uint16
	C    chan ForwardItem
}

// StartSlotMigration begins streaming mode for slot: subsequent mutations
// touching keys in the slot are mirrored into the returned stream, and
// EnqueueSlotDump schedules the bulk copy through the same stream.
func (n *Node) StartSlotMigration(slot uint16) *MigrationStream {
	ms := &MigrationStream{Slot: slot, C: make(chan ForwardItem, 1024)}
	n.run(context.Background(), func() error {
		n.migStream = ms
		return nil
	})
	return ms
}

// EnqueueSlotDump dumps every key currently in the slot into the
// migration stream. It runs on the workloop, so the dump point is
// serialized against mutations: effects emitted after it strictly follow
// the dumped state.
func (n *Node) EnqueueSlotDump(ctx context.Context, slot uint16) error {
	return n.run(ctx, func() error {
		ms := n.migStream
		if ms == nil {
			return nil
		}
		for _, key := range n.eng.DB().SlotKeys(slot) {
			cmds := n.eng.DumpCommands(key)
			if len(cmds) == 0 {
				continue
			}
			select {
			case ms.C <- ForwardItem{Cmds: cmds}:
			case <-n.stopCtx.Done():
				return ErrStopped
			}
		}
		return nil
	})
}

// EndSlotMigration stops mirroring and closes the stream.
func (n *Node) EndSlotMigration(slot uint16) {
	n.run(context.Background(), func() error {
		if ms := n.migStream; ms != nil && ms.Slot == slot {
			close(ms.C)
			n.migStream = nil
		}
		return nil
	})
}

// SetSlotGate installs (or clears, with nil) the slot admission check
// consulted before executing client commands. The cluster layer uses it
// for MOVED redirects, CROSSSLOT validation, and the brief write block
// during slot ownership transfer.
func (n *Node) SetSlotGate(gate func(name string, keys [][]byte, writing bool) (resp.Value, bool)) {
	n.mu.Lock()
	n.slotGate = gate
	n.mu.Unlock()
}

// AppendControl appends a control entry (slot 2PC messages etc.) through
// the primary's append chain, returning once it is durably committed. It
// runs on the workloop behind a flush, so a control entry never overtakes
// the mutations buffered ahead of it.
func (n *Node) AppendControl(ctx context.Context, typ txlog.EntryType, payload []byte) (txlog.EntryID, error) {
	type result struct {
		id  txlog.EntryID
		err error
	}
	ch := make(chan result, 1)
	err := n.run(ctx, func() error {
		// A flush failure demotes, so the role is read after it.
		n.flushPending()
		n.mu.Lock()
		role := n.role
		trk := n.trk
		n.mu.Unlock()
		if role != election.RolePrimary {
			return errNotPrimaryErr
		}
		p, err := n.sequence(txlog.Entry{Type: typ, Payload: payload}, &n.stats.AppendsRetried)
		if err != nil {
			// Fenced or retried out the lease: the sequencer stepped down.
			return err
		}
		n.onCommit(p, func(err error) {
			if err == nil {
				trk.Commit(p.ID().Seq)
			}
			ch <- result{p.ID(), err}
		})
		return nil
	})
	if err != nil {
		return txlog.ZeroID, err
	}
	select {
	case r := <-ch:
		return r.id, r.err
	case <-ctx.Done():
		return txlog.ZeroID, ctx.Err()
	case <-n.stopCtx.Done():
		return txlog.ZeroID, ErrStopped
	}
}

// LeaseReleasePayload marks a voluntary leadership hand-over: replicas
// observing it skip the backoff and campaign immediately, minimizing
// write unavailability during collaborative transfers (§5.2 instance
// scaling, §5.1 N+1 upgrades).
var LeaseReleasePayload = []byte("lease-release")

// StepDown performs a collaborative leadership transfer: the primary
// appends a lease-release entry and demotes itself. It returns once the
// release is durably committed (or the node was not primary).
func (n *Node) StepDown(ctx context.Context) error {
	_, err := n.AppendControl(ctx, txlog.EntryControl, LeaseReleasePayload)
	if err != nil {
		return err
	}
	n.demote()
	return nil
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

// forwardEffects mirrors a mutation's effects into the migration stream
// when one of the touched keys belongs to the migrating slot. Called right
// after the effects entered the group-commit buffer.
func (n *Node) forwardEffects(keys []string, effects []byte) {
	ms := n.migStream
	if ms == nil {
		return
	}
	for _, k := range keys {
		if crc16.Slot(k) == ms.Slot {
			select {
			case ms.C <- ForwardItem{Effects: effects}:
			case <-n.stopCtx.Done():
			}
			return
		}
	}
}
