package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"memorydb/internal/core"
	"memorydb/internal/crc16"
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

	abort := func(cause error) error {
		c.setSlotBlocked(slot, false)
		// Direct the target to delete all transferred data; resuming
		// writes on the source makes the abort externally invisible.
		msg := encodeSlotMsg(slotMsg{Phase: "abort", Slot: slot, From: src.ID, To: dst.ID})
		_, _ = srcP.AppendControl(ctx, txlog.EntrySlot, msg)
		_, _ = dstP.AppendControl(ctx, txlog.EntrySlot, msg)
		deleteSlotKeys(ctx, dstP, slot)
		return cause
	}

	// Data movement: the slot's keys as of a position of the source's
	// log, then the log itself past that position — the replication
	// stream of later mutations (§5.2). The source keeps serving
	// throughout; the target commits every batch to its own log, so its
	// replicas converge too.
	pos, sum, dump, err := srcP.DumpSlot(ctx, slot)
	if err != nil {
		return abort(fmt.Errorf("cluster: slot dump: %w", err))
	}
	if err := applyBatches(ctx, dstP, dump); err != nil {
		return abort(fmt.Errorf("cluster: applying the slot dump: %w", err))
	}
	replay := txlog.NewReplayer(engine.Version, sum)
	if pos, err = replaySlot(ctx, replay, src.Log, pos, slot, dstP); err != nil {
		return abort(err)
	}

	// Ownership transfer: block new writes, wait until the ones in
	// progress are in the source's log (the DBSIZE barrier inside
	// slotKeyCount), replay the log once more, then handshake.
	c.setSlotBlocked(slot, true)
	srcCount, err := slotKeyCount(ctx, srcP, slot)
	if err != nil {
		return abort(err)
	}
	if _, err := replaySlot(ctx, replay, src.Log, pos, slot, dstP); err != nil {
		return abort(err)
	}

	// Data integrity handshake: both sides must agree on the slot's key
	// count before ownership changes hands.
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
	// deletes the transferred data in the background, one commit round
	// per 64 keys.
	go deleteSlotKeys(context.Background(), srcP, slot)
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

// maxRunBatches caps a run applyBatches hands the target: a run is one
// turn, so its batches share a log entry up to the buffer's byte cap.
const maxRunBatches = 64

// applyBatches applies batches on n, in order, as runs of at most
// maxRunBatches atomic batches, and waits for every reply. The slot gate
// does not judge a batch, so it reaches a node that does not own the
// slot yet.
func applyBatches(ctx context.Context, n *core.Node, batches [][][][]byte) error {
	var calls []core.Call
	for len(batches) > 0 {
		var r core.Run
		k := min(maxRunBatches, len(batches))
		for _, b := range batches[:k] {
			calls = append(calls, n.Add(&r, core.Request{Batch: b}))
		}
		batches = batches[k:]
		n.SubmitRun(ctx, &r)
	}
	for _, call := range calls {
		v, _, err := call.Wait(ctx)
		if err != nil {
			return err
		}
		if v.IsError() {
			return fmt.Errorf("cluster: target rejected migration batch: %s", v.Text())
		}
	}
	return nil
}

// replaySlot steps rp through log's committed entries after from and
// applies on dst, one batch per data entry, the commands that name a key
// in slot. It returns the position it replayed through. A log read error
// (ErrTrimmed, ErrUnavailable), a checksum the replay disagrees with or a
// command it cannot resolve fails it, and nothing of the failed pass is
// applied.
func replaySlot(ctx context.Context, rp *txlog.Replayer, log *txlog.Log, from txlog.EntryID, slot uint16, dst *core.Node) (txlog.EntryID, error) {
	var batches [][][][]byte
	end, err := rp.Range(log, from, log.CommittedTail(), func(e txlog.Entry) error {
		cmds, err := slotCommands(e.Payload, slot)
		if len(cmds) > 0 {
			batches = append(batches, cmds)
		}
		return err
	})
	if err != nil {
		return end, fmt.Errorf("cluster: replaying the source's log: %w", err)
	}
	return end, applyBatches(ctx, dst, batches)
}

// slotCommands decodes a data entry's payload and keeps, in order, the
// commands that name a key in slot. A keyless command (FLUSHALL) names
// none and is skipped: the key-count handshake judges what it did. A
// command the engine cannot resolve fails the move; it is never dropped.
func slotCommands(payload []byte, slot uint16) ([][][]byte, error) {
	cmds, err := engine.DecodeRecord(payload)
	if err != nil {
		return nil, err
	}
	var kept [][][]byte
	for _, argv := range cmds {
		var cmd *engine.Command
		if len(argv) > 0 {
			cmd = engine.Lookup(argv[0])
		}
		if cmd == nil {
			return nil, fmt.Errorf("cluster: replayed command %q is unknown", argv)
		}
		if slices.ContainsFunc(cmd.Keys(argv), func(k []byte) bool { return crc16.Slot(k) == slot }) {
			kept = append(kept, argv)
		}
	}
	return kept, nil
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
// slot's part inside the workloop — deletes in batches of 64, each
// waiting out its own commit round so the deletion does not crowd out
// foreground traffic (§5.2), and lists again only while the O(1) count
// says a key is left. n does not own the slot (any more, or yet) and the
// slot gate would bounce a plain DEL with MOVED; like the migration's
// copy, the deletes go in as batches, which the gate does not judge.
func deleteSlotKeys(ctx context.Context, n *core.Node, slot uint16) {
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
