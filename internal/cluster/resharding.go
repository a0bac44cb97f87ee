package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/engine"
	"memorydb/internal/txlog"
)

// Slot ownership transfer messages, durably committed to both shards'
// transaction logs as a 2-phase-commit protocol (paper §5.2). If either
// side fails mid-protocol, the recorded phase determines the outcome:
// anything before commit aborts cleanly (the target deletes transferred
// data); after both commit records the new owner serves the slot.
type slotMsg struct {
	Phase string `json:"phase"` // "prepare", "commit", "abort"
	Slot  uint16 `json:"slot"`
	From  string `json:"from"`
	To    string `json:"to"`
}

func encodeSlotMsg(m slotMsg) []byte {
	b, _ := json.Marshal(m)
	return b
}

// DecodeSlotMsg parses an EntrySlot payload (exported for log audits and
// tests).
func DecodeSlotMsg(b []byte) (phase string, slot uint16, from, to string, err error) {
	var m slotMsg
	if err = json.Unmarshal(b, &m); err != nil {
		return
	}
	return m.Phase, m.Slot, m.From, m.To, nil
}

// MigrateSlot atomically moves one slot from its current owner to the
// shard toID. Nodes continue servicing requests during data movement;
// writes to the slot are blocked only for the brief ownership transfer
// (a few round trips plus log commit latencies, §5.2).
func (c *Cluster) MigrateSlot(ctx context.Context, slot uint16, toID string) (err error) {
	src := c.SlotOwner(slot)
	if src == nil {
		return fmt.Errorf("cluster: slot %d not served", slot)
	}
	dst, ok := c.ShardByID(toID)
	if !ok {
		return fmt.Errorf("cluster: no shard %q", toID)
	}
	if src.ID == dst.ID {
		return nil
	}
	srcP, err := src.WaitForPrimary(c.cfg.Clock, waitPrimaryTimeout)
	if err != nil {
		return err
	}
	dstP, err := dst.WaitForPrimary(c.cfg.Clock, waitPrimaryTimeout)
	if err != nil {
		return err
	}

	// Phase 0: durably record intent on both logs.
	prep := encodeSlotMsg(slotMsg{Phase: "prepare", Slot: slot, From: src.ID, To: dst.ID})
	if _, err := srcP.AppendControl(ctx, txlog.EntrySlot, prep); err != nil {
		return fmt.Errorf("cluster: prepare on source: %w", err)
	}
	if _, err := dstP.AppendControl(ctx, txlog.EntrySlot, prep); err != nil {
		return fmt.Errorf("cluster: prepare on target: %w", err)
	}

	// Data movement: stream dump + live mutations, in source-serial
	// order, applying each item on the target primary (which commits it
	// to its own transaction log so target replicas converge too).
	stream := srcP.StartSlotMigration(slot)
	// A forwarder that failed keeps draining, or the dump would wedge the
	// source's workloop on a full stream; forwardErr is closed after its
	// one result, so abort can wait for the forwarder whether or not the
	// result was already taken.
	forwardErr := make(chan error, 1)
	go func() {
		err := forwardStream(ctx, stream, dstP)
		for range stream.C {
		}
		forwardErr <- err
		close(forwardErr)
	}()

	abort := func(cause error) error {
		c.setSlotBlocked(slot, false)
		srcP.EndSlotMigration(slot)
		<-forwardErr
		// Direct the target to delete all transferred data; resuming
		// writes on the source makes the abort externally invisible.
		msg := encodeSlotMsg(slotMsg{Phase: "abort", Slot: slot, From: src.ID, To: dst.ID})
		_, _ = srcP.AppendControl(ctx, txlog.EntrySlot, msg)
		_, _ = dstP.AppendControl(ctx, txlog.EntrySlot, msg)
		deleteSlotKeys(ctx, c.cfg.Clock, dstP, slot)
		return cause
	}

	if err := srcP.EnqueueSlotDump(ctx, slot); err != nil {
		return abort(fmt.Errorf("cluster: slot dump: %w", err))
	}

	// Ownership transfer: block new writes, flush in-progress ones (the
	// final re-dump is serialized behind them in the source workloop and
	// is idempotent), then handshake.
	c.setSlotBlocked(slot, true)
	if err := srcP.EnqueueSlotDump(ctx, slot); err != nil {
		return abort(fmt.Errorf("cluster: final slot dump: %w", err))
	}
	srcP.EndSlotMigration(slot)
	if err := <-forwardErr; err != nil {
		return abort(fmt.Errorf("cluster: forwarding: %w", err))
	}

	// Data integrity handshake: both sides must agree on the slot's key
	// count before ownership changes hands.
	srcCount, err := slotKeyCount(ctx, srcP, slot)
	if err != nil {
		return abort(err)
	}
	dstCount, err := slotKeyCount(ctx, dstP, slot)
	if err != nil {
		return abort(err)
	}
	if srcCount != dstCount {
		return abort(fmt.Errorf("cluster: integrity handshake failed: source has %d keys, target %d", srcCount, dstCount))
	}

	// Phase 2: durably commit the ownership change on both logs.
	com := encodeSlotMsg(slotMsg{Phase: "commit", Slot: slot, From: src.ID, To: dst.ID})
	if _, err := srcP.AppendControl(ctx, txlog.EntrySlot, com); err != nil {
		return abort(fmt.Errorf("cluster: commit on source: %w", err))
	}
	if _, err := dstP.AppendControl(ctx, txlog.EntrySlot, com); err != nil {
		// The source recorded commit; recovery would roll forward. For
		// the in-process orchestration we surface the inconsistency.
		return fmt.Errorf("cluster: commit on target after source committed: %w", err)
	}
	c.mu.Lock()
	c.slotOwner[slot] = dst
	delete(c.blockedSlots, slot)
	c.mu.Unlock()

	// The old owner now redirects (the gate consults slotOwner) and
	// deletes the transferred data in a rate-limited background task.
	go deleteSlotKeys(context.Background(), c.cfg.Clock, srcP, slot)
	return nil
}

func (c *Cluster) setSlotBlocked(slot uint16, blocked bool) {
	c.mu.Lock()
	if blocked {
		c.blockedSlots[slot] = true
	} else {
		delete(c.blockedSlots, slot)
	}
	c.mu.Unlock()
}

// forwardStream applies the migration stream to the target primary in
// order. Dump items arrive as decoded commands; live effects arrive as
// one RESP-encoded record.
func forwardStream(ctx context.Context, ms *core.MigrationStream, dst *core.Node) error {
	for item := range ms.C {
		batch := item.Cmds
		if batch == nil {
			var err error
			if batch, err = engine.DecodeRecord(item.Effects); err != nil {
				return err
			}
		}
		if len(batch) == 0 {
			continue
		}
		v, err := dst.DoBatch(ctx, batch)
		if err != nil {
			return err
		}
		if v.IsError() {
			return fmt.Errorf("cluster: target rejected migration batch: %s", v.Text())
		}
	}
	return nil
}

// slotKeyCount counts the slot's keys on a node via its engine (through
// a barrier-style read so it reflects all applied writes).
func slotKeyCount(ctx context.Context, n *core.Node, slot uint16) (int, error) {
	v, err := n.Do(ctx, [][]byte{[]byte("DBSIZE")})
	if err != nil {
		return 0, err
	}
	if v.IsError() {
		return 0, fmt.Errorf("cluster: DBSIZE barrier failed: %s", v.Text())
	}
	return n.SlotKeyCount(ctx, slot)
}

// deleteSlotKeys drains slot on n. It lists the slot once — a scan of the
// slot's part inside the workloop — deletes in batches of 64 with a pause
// between them so the deletion does not disturb foreground traffic
// (§5.2), and lists again only while the O(1) count says a key is left.
// n does not own the slot (any more, or yet) and the slot gate would
// bounce a plain DEL with MOVED; like the migration stream's, the deletes
// go in as batches, which the gate does not judge.
func deleteSlotKeys(ctx context.Context, clk clock.Clock, n *core.Node, slot uint16) {
	for {
		if left, err := n.SlotKeyCount(ctx, slot); err != nil || left == 0 {
			return
		}
		keys, err := n.SlotKeys(ctx, slot)
		if err != nil {
			return
		}
		for len(keys) > 0 {
			batch := min(64, len(keys))
			del := [][]byte{[]byte("DEL")}
			for _, k := range keys[:batch] {
				del = append(del, []byte(k))
			}
			keys = keys[batch:]
			if v, err := n.DoBatch(ctx, [][][]byte{del}); err != nil || v.IsError() {
				return
			}
			clk.Sleep(time.Millisecond)
		}
	}
}

// --- audit helpers ---

// SlotTransferHistory extracts the slot 2PC records from a shard's log —
// used by tests and by operators auditing a migration.
func SlotTransferHistory(log *txlog.Log) []string {
	var out []string
	r := log.NewReader(txlog.ZeroID)
	for {
		e, ok, err := r.TryNext()
		if err != nil || !ok {
			return out
		}
		if e.Type != txlog.EntrySlot {
			continue
		}
		phase, slot, from, to, err := DecodeSlotMsg(e.Payload)
		if err != nil {
			continue
		}
		out = append(out, fmt.Sprintf("%s slot=%d %s->%s", phase, slot, from, to))
	}
}
