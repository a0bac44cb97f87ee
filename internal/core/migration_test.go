package core

import (
	"fmt"
	"sort"
	"testing"

	"memorydb/internal/crc16"
	"memorydb/internal/engine"
	"memorydb/internal/txlog"
)

// TestDumpSlotStandsAtItsLogPosition holds DumpSlot to its contract: the
// dump reflects every mutation at or below the position it returns and
// none above it, and its checksum is the log's at that position, so a
// replay of the log past it, seeded with that checksum, carries the copy
// forward. The dump shares a turn with a write to the slot before it,
// still buffered, and one after it.
func TestDumpSlotStandsAtItsLogPosition(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	slot := crc16.Slot("{s}")
	h.do("SET", "{s}a", "1")
	h.commit()

	var (
		pos  txlog.EntryID
		sum  uint64
		dump [][][][]byte
	)
	h.queueRun(h.primary, []string{"SET", "{s}b", "2"})
	h.queueFunc(h.primary, func() error {
		var err error
		pos, sum, dump, err = h.primary.dumpSlotTurn(slot)
		return err
	})
	h.queueRun(h.primary, []string{"SET", "{s}c", "3"})
	h.take(h.primary)
	for len(h.primary.issued) > 0 {
		h.commit()
	}

	var dumped []string
	for _, cmds := range dump {
		dumped = append(dumped, string(cmds[0][1]))
	}
	sort.Strings(dumped)
	if fmt.Sprint(dumped) != "[{s}a {s}b]" {
		t.Fatalf("the dump holds %v, want {s}a and {s}b", dumped)
	}
	if at, err := h.log.ChecksumAt(pos); err != nil || at != sum {
		t.Fatalf("the dump's checksum is %#x, the log's at %v %#x (%v)", sum, pos, at, err)
	}
	var replayed [][][]byte
	if _, err := txlog.NewReplayer(engine.Version, sum).Range(h.log, pos, h.log.CommittedTail(), func(e txlog.Entry) error {
		cmds, err := engine.DecodeRecord(e.Payload)
		replayed = append(replayed, cmds...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 1 || fmt.Sprintf("%q", replayed[0]) != `["SET" "{s}c" "3"]` {
		t.Fatalf("the log past the dump holds %q, want the one SET after it", replayed)
	}
}
