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
// the slot while data moves: keys are dumped through the slot's owner
// shard workloop into an ordered stream that also carries the replication
// effects of concurrent mutations on the slot, so the target observes
// "serialized keys plus replication stream mutations of keys already
// transmitted" in a single consistent order. A slot maps to exactly one
// execution shard, so migration tasks route to that shard and the stream
// ordering argument is unchanged from the single-workloop design.
// Ownership transfer itself is coordinated by the cluster layer with 2PC
// records in the transaction logs.

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
	sh := n.slotShard(slot)
	t := &task{kind: taskMigCtl, shard: sh.idx, mig: ms, migOn: true, slot: slot, swapCh: make(chan struct{})}
	select {
	case sh.tasks <- t:
		<-t.swapCh
	case <-n.stopCtx.Done():
	}
	return ms
}

// EnqueueSlotDump dumps every key currently in the slot into the
// migration stream. It runs inside the slot's owner shard workloop, so
// the dump point is serialized against mutations: effects emitted after
// it strictly follow the dumped state.
func (n *Node) EnqueueSlotDump(ctx context.Context, slot uint16) error {
	sh := n.slotShard(slot)
	t := &task{kind: taskMigDump, shard: sh.idx, slot: slot, swapCh: make(chan struct{})}
	select {
	case sh.tasks <- t:
	case <-ctx.Done():
		return ctx.Err()
	case <-n.stopCtx.Done():
		return ErrStopped
	}
	select {
	case <-t.swapCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-n.stopCtx.Done():
		return ErrStopped
	}
}

// EndSlotMigration stops mirroring and closes the stream.
func (n *Node) EndSlotMigration(slot uint16) {
	sh := n.slotShard(slot)
	t := &task{kind: taskMigCtl, shard: sh.idx, migOn: false, slot: slot, swapCh: make(chan struct{})}
	select {
	case sh.tasks <- t:
		<-t.swapCh
	case <-n.stopCtx.Done():
	}
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
// the primary's append chain, returning once it is durably committed.
// Control entries must not overtake buffered mutations, so the append
// quiesces every shard (each flushes on park) before taking the
// sequencer.
func (n *Node) AppendControl(ctx context.Context, typ txlog.EntryType, payload []byte) (txlog.EntryID, error) {
	ch := make(chan ctlResult, 1)
	go n.runControl(typ, payload, ch)
	select {
	case r := <-ch:
		return r.id, r.err
	case <-ctx.Done():
		return txlog.ZeroID, ctx.Err()
	case <-n.stopCtx.Done():
		return txlog.ZeroID, ErrStopped
	}
}

type ctlResult struct {
	id  txlog.EntryID
	err error
}

// runControl is the barrier coordinator for one control entry.
func (n *Node) runControl(typ txlog.EntryType, payload []byte, ch chan ctlResult) {
	n.barrierMu.Lock()
	defer n.barrierMu.Unlock()
	if !n.gate() {
		ch <- ctlResult{err: ErrStopped}
		return
	}
	if n.Role() != election.RolePrimary {
		ch <- ctlResult{err: errNotPrimaryErr}
		return
	}
	release, ok := n.holdShards(n.shards)
	if !ok {
		ch <- ctlResult{err: ErrStopped}
		return
	}
	defer release()
	// Parking flushed every shard; a flush failure demotes, so re-check.
	n.mu.Lock()
	role := n.role
	trk := n.trk
	n.mu.Unlock()
	if role != election.RolePrimary {
		ch <- ctlResult{err: errNotPrimaryErr}
		return
	}
	p, err := n.sequence(txlog.Entry{Type: typ, Payload: payload}, &n.stats.AppendsRetried)
	if err != nil {
		// Fenced or retried out the lease: the sequencer stepped down.
		ch <- ctlResult{err: err}
		return
	}
	n.onCommit(p, func(err error) {
		if err == nil {
			trk.Commit(p.ID().Seq)
		}
		ch <- ctlResult{id: p.ID(), err: err}
	})
}

func (n *Node) handleMigCtl(sh *nodeShard, t *task) {
	if t.migOn {
		sh.migStream = t.mig
	} else if sh.migStream != nil {
		close(sh.migStream.C)
		sh.migStream = nil
	}
	close(t.swapCh)
}

func (n *Node) handleMigDump(sh *nodeShard, t *task) {
	defer close(t.swapCh)
	if sh.migStream == nil {
		return
	}
	for _, key := range sh.eng.DB().SlotKeys(t.slot) {
		cmds := sh.eng.DumpCommands(key)
		if len(cmds) == 0 {
			continue
		}
		select {
		case sh.migStream.C <- ForwardItem{Cmds: cmds}:
		case <-n.stopCtx.Done():
			return
		}
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

// slotInfo is what a taskSlotInfo reads inside the slot's owner shard
// workloop, so the view is serialized against writes.
type slotInfo struct {
	count int
	keys  []string
}

func (n *Node) slotInfo(ctx context.Context, slot uint16, wantKeys bool) (slotInfo, error) {
	sh := n.slotShard(slot)
	t := &task{kind: taskSlotInfo, shard: sh.idx, slot: slot, wantKeys: wantKeys, slotCh: make(chan slotInfo, 1)}
	select {
	case sh.tasks <- t:
	case <-ctx.Done():
		return slotInfo{}, ctx.Err()
	case <-n.stopCtx.Done():
		return slotInfo{}, ErrStopped
	}
	select {
	case info := <-t.slotCh:
		return info, nil
	case <-ctx.Done():
		return slotInfo{}, ctx.Err()
	case <-n.stopCtx.Done():
		return slotInfo{}, ErrStopped
	}
}

// SlotKeys returns the keys currently stored in slot: a scan of the
// slot's 1/64 of the keyspace inside the workloop, so a caller working
// through a slot takes the list once and polls SlotKeyCount.
func (n *Node) SlotKeys(ctx context.Context, slot uint16) ([]string, error) {
	info, err := n.slotInfo(ctx, slot, true)
	return info.keys, err
}

// SlotKeyCount returns the number of keys in slot, in O(1).
func (n *Node) SlotKeyCount(ctx context.Context, slot uint16) (int, error) {
	info, err := n.slotInfo(ctx, slot, false)
	return info.count, err
}

// forwardEffects mirrors a mutation's effects into every migration stream
// (of the shards sh covers) whose slot one of the touched keys belongs to.
// Called right after the effects entered sh's group-commit buffer.
func (n *Node) forwardEffects(sh *nodeShard, keys []string, effects []byte) {
	for _, o := range sh.covers {
		ms := o.migStream
		if ms == nil {
			continue
		}
		for _, k := range keys {
			if crc16.Slot(k) == ms.Slot {
				select {
				case ms.C <- ForwardItem{Effects: effects}:
				case <-n.stopCtx.Done():
				}
				break
			}
		}
	}
}
