package core

import (
	"fmt"
	"testing"
)

// The hazard index and the entries reads join, driven by hand on a node
// that has nothing but its FIFO of issued appends, its buffer and its
// index: buffer puts a write in the open entry as logMutation does, flush
// issues that entry as flushPending does, and answerHead takes the FIFO's
// head off as runCompleted does.

func buffer(n *Node, keys ...string) {
	if n.gc.open == nil {
		n.gc.open = &issuedEntry{data: true}
	}
	n.gc.open.writes = append(n.gc.open.writes, &task{done: make(chan struct{}, 1)})
	n.hazards.note(keys, n.entries+1)
}

func flush(n *Node) {
	n.issue(n.gc.open)
	n.gc.open = nil
}

func answerHead(n *Node) {
	n.issued = n.issued[1:]
	n.hazards.shed(n.unanswered())
}

// joins names the entry a read of keys (of everything, when all) joins:
// "buffer", "entry <i>" for the i-th entry on the FIFO, or "" when the read
// is answered at once.
func joins(n *Node, all bool, keys ...string) string {
	var views [][]byte
	for _, k := range keys {
		views = append(views, []byte(k))
	}
	held := n.cover(views, all)
	switch {
	case held == nil:
		return ""
	case n.gc.open != nil && held == &n.gc.open.reads:
		return "buffer"
	}
	for i, e := range n.issued {
		if held == &e.reads {
			return fmt.Sprint("entry ", i)
		}
	}
	return "unknown"
}

// TestHazardReadOnCleanKeyAnsweredAtOnce: a read of a key no write left
// outstanding joins no entry, on an idle node and on a busy one.
func TestHazardReadOnCleanKeyAnsweredAtOnce(t *testing.T) {
	n := &Node{}
	if got := joins(n, false, "clean"); got != "" {
		t.Fatalf("read of a clean key on an idle node joins %q, want nothing", got)
	}
	buffer(n, "a")
	flush(n)
	buffer(n, "b")
	if got := joins(n, false, "clean"); got != "" {
		t.Fatalf("read of a clean key joins %q, want nothing", got)
	}
}

// TestHazardReadWaitsForItsWritesEntry: a read of a written key waits for
// the entry that carries the write — the buffer while the write has no seq
// yet, the same entry once it is issued — and for nothing once that entry
// was answered for.
func TestHazardReadWaitsForItsWritesEntry(t *testing.T) {
	n := &Node{}
	buffer(n, "k")
	if got := joins(n, false, "k"); got != "buffer" {
		t.Fatalf("read of a buffered key joins %q, want the buffer", got)
	}
	flush(n)
	if got := joins(n, false, "k"); got != "entry 0" {
		t.Fatalf("read of an issued key joins %q, want its entry", got)
	}
	answerHead(n)
	if got := joins(n, false, "k"); got != "" {
		t.Fatalf("read joins %q after its write's entry was answered for, want nothing", got)
	}
}

// TestHazardReadJoinsNewestEntryAcrossKeys: a read waits for the newest
// entry that wrote any key it read, whatever order it names them in; a key
// written again is gated on the newer write, not the one answered first.
func TestHazardReadJoinsNewestEntryAcrossKeys(t *testing.T) {
	n := &Node{}
	buffer(n, "a")
	flush(n)
	buffer(n, "b")
	flush(n)
	buffer(n, "c")
	for _, c := range []struct {
		keys []string
		want string
	}{
		{[]string{"a"}, "entry 0"},
		{[]string{"b"}, "entry 1"},
		{[]string{"a", "b"}, "entry 1"},
		{[]string{"b", "a"}, "entry 1"},
		{[]string{"a", "c"}, "buffer"},
	} {
		if got := joins(n, false, c.keys...); got != c.want {
			t.Errorf("read of %v joins %q, want %q", c.keys, got, c.want)
		}
	}
	buffer(n, "a") // rewritten: the newest entry that wrote a is the buffer
	if got := joins(n, false, "a"); got != "buffer" {
		t.Errorf("read of a rewritten key joins %q, want the buffer", got)
	}
	flush(n)
	answerHead(n)
	if got := joins(n, false, "a"); got != "entry 1" {
		t.Errorf("read of a joins %q after its first write was answered for, want the rewrite's entry", got)
	}
}

// TestHazardReadOnOtherKeyNotGated: hazards are per key — a write in
// flight gates a read of its key and no other.
func TestHazardReadOnOtherKeyNotGated(t *testing.T) {
	n := &Node{}
	buffer(n, "a")
	flush(n)
	if got := joins(n, false, "a"); got != "entry 0" {
		t.Fatalf("read of the written key joins %q, want its entry", got)
	}
	if got := joins(n, false, "b"); got != "" {
		t.Fatalf("read of another key joins %q, want nothing", got)
	}
}

// TestHazardMultiKeyReadJoinsOnAnyHazard: a read of several keys waits
// when any one of them is outstanding, wherever it stands among them.
func TestHazardMultiKeyReadJoinsOnAnyHazard(t *testing.T) {
	n := &Node{}
	buffer(n, "b")
	flush(n)
	for _, keys := range [][]string{{"a", "b", "c"}, {"b", "x"}, {"x", "y", "b"}} {
		if got := joins(n, false, keys...); got != "entry 0" {
			t.Errorf("read of %v joins %q, want the entry that wrote b", keys, got)
		}
	}
	answerHead(n)
	if got := joins(n, false, "a", "b", "c"); got != "" {
		t.Errorf("read joins %q after b's entry was answered for, want nothing", got)
	}
}

// TestTouchesAnySeesLaterKeysAndForgetsAtReset: whether a read touches any
// buffered key sees keys buffered after the read last probed, and forgets
// them all once the buffer is flushed: a flushed key gates on its issued
// entry, not on the buffer that opens next.
func TestTouchesAnySeesLaterKeysAndForgetsAtReset(t *testing.T) {
	n := &Node{}
	key := func(i int) string { return fmt.Sprint("key", i) }
	for i := 0; i < 8; i++ {
		buffer(n, key(i))
		for _, probe := range []int{0, i, i + 1} {
			want := ""
			if probe <= i {
				want = "buffer"
			}
			if got := joins(n, false, "other", key(probe)); got != want {
				t.Fatalf("%d buffered keys: read of key%d joins %q, want %q", i+1, probe, got, want)
			}
		}
	}
	flush(n)
	buffer(n, "fresh0")
	if got := joins(n, false, key(0)); got != "entry 0" {
		t.Fatalf("read of a flushed key joins %q, want its issued entry", got)
	}
	if got := joins(n, false, "fresh0"); got != "buffer" {
		t.Fatalf("read of a key buffered after the flush joins %q, want the buffer", got)
	}
}

// TestHazardStaleKeyDroppedLazily: a key whose entry was answered for gates
// nothing, and the read that finds it drops it from the index.
func TestHazardStaleKeyDroppedLazily(t *testing.T) {
	n := &Node{}
	buffer(n, "a", "b")
	flush(n)
	buffer(n, "b")
	flush(n)
	answerHead(n)
	if got := joins(n, false, "a", "b"); got != "entry 0" {
		t.Fatalf("read of a and b joins %q, want the entry that rewrote b", got)
	}
	if _, stale := n.hazards.m["a"]; stale || len(n.hazards.m) != 1 {
		t.Fatalf("index = %v, want only b", n.hazards.m)
	}
	answerHead(n)
	if got := joins(n, false, "a", "b"); got != "" || len(n.hazards.m) != 0 {
		t.Fatalf("read joins %q with index %v after every entry was answered for, want nothing and none", got, n.hazards.m)
	}
}

// TestHazardIndexShedsPast1024: past the shedding size, answering the
// entry that leaves every key stale empties the index at once, and one that
// leaves a newer write outstanding drops only the stale keys.
func TestHazardIndexShedsPast1024(t *testing.T) {
	n := &Node{}
	keys := make([]string, 1100)
	for i := range keys {
		keys[i] = fmt.Sprint("k", i)
	}
	buffer(n, keys...)
	flush(n)
	buffer(n, keys[:3]...)
	flush(n)
	answerHead(n)
	if len(n.hazards.m) != 3 {
		t.Fatalf("%d keys after answering the first entry, want the 3 rewritten by the second", len(n.hazards.m))
	}
	buffer(n, keys...)
	flush(n)
	answerHead(n)
	answerHead(n)
	if len(n.hazards.m) != 0 {
		t.Fatalf("%d keys after every entry was answered for, want none", len(n.hazards.m))
	}
}

// TestGateAllReadJoinsNewestEntry: a read of everything (WAIT, a keyspace
// read, a read-only MULTI) waits for the newest entry of all — the open
// buffer, else the newest issued one, whatever kind — and for nothing once
// every entry was answered for.
func TestGateAllReadJoinsNewestEntry(t *testing.T) {
	n := &Node{}
	if got := joins(n, true); got != "" {
		t.Fatalf("read of everything on an idle node joins %q, want nothing", got)
	}
	buffer(n, "k")
	if got := joins(n, true); got != "buffer" {
		t.Fatalf("read of everything joins %q, want the buffer", got)
	}
	flush(n)
	n.issue(&issuedEntry{}) // a checksum or lease renewal behind it
	if got := joins(n, true); got != "entry 1" {
		t.Fatalf("read of everything joins %q, want the newest issued entry", got)
	}
	answerHead(n)
	answerHead(n)
	if got := joins(n, true); got != "" {
		t.Fatalf("read of everything joins %q after every entry was answered for, want nothing", got)
	}
}

// TestAbortFailsHeldReads: a step-down fails every reply the node
// withholds — writes and gated reads, on the FIFO and in the buffer —
// exactly once, and forgets every hazard.
func TestAbortFailsHeldReads(t *testing.T) {
	n := &Node{}
	buffer(n, "a")
	flush(n)
	buffer(n, "b")
	var held []*task
	for _, k := range []string{"a", "b"} {
		r := &task{done: make(chan struct{}, 1)}
		reads := n.cover([][]byte{[]byte(k)}, false)
		*reads = append(*reads, r)
		held = append(held, r)
	}
	held = append(held, n.issued[0].writes[0], n.gc.open.writes[0])
	n.abortHeld(errDemoted)
	for i, r := range held {
		select {
		case <-r.done:
		default:
			t.Fatalf("held reply %d was not failed", i)
		}
		if !r.val.Equal(errDemoted) {
			t.Errorf("held reply %d = %v, want %v", i, r.val, errDemoted)
		}
	}
	if got := n.abortedReplies.Load(); got != int64(len(held)) {
		t.Errorf("%d replies counted as failed, want %d", got, len(held))
	}
	if len(n.hazards.m) != 0 || n.gc.pending() || len(n.issued[0].writes)+len(n.issued[0].reads) != 0 {
		t.Error("the step-down left a hazard or a held reply behind")
	}
	if got := joins(n, false, "a", "b"); got != "" {
		t.Errorf("read after the step-down joins %q, want nothing", got)
	}
}
