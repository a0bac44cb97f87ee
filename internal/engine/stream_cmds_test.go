package engine

import (
	"testing"
)

func TestXAddAutoAndExplicit(t *testing.T) {
	_, _, do := testEngine(t)
	v := do("XADD", "s", "*", "f", "v")
	if v.Null || v.IsError() {
		t.Fatalf("XADD * = %v", v)
	}
	wantInt(t, do("XLEN", "s"), 1)
	wantText(t, do("XADD", "s2", "100-1", "f", "v"), "100-1")
	wantErrPrefix(t, do("XADD", "s2", "100-1", "f", "v"), "ERR")
	wantErrPrefix(t, do("XADD", "s2", "garbage", "f", "v"), "ERR Invalid stream ID")
	wantErrPrefix(t, do("XADD", "s2", "*", "f"), "ERR wrong number of arguments")
}

func TestXAddPartialAutoSeq(t *testing.T) {
	_, _, do := testEngine(t)
	wantText(t, do("XADD", "s", "5-0", "f", "v"), "5-0")
	wantText(t, do("XADD", "s", "5-*", "f", "v"), "5-1")
	wantText(t, do("XADD", "s", "9-*", "f", "v"), "9-0")
}

func TestXAddReplicatesExplicitID(t *testing.T) {
	e, _, _ := testEngine(t)
	res := exec(e, "XADD", "s", "*", "f", "v")
	id := res.Reply.Text()
	cmds, _ := DecodeRecord(res.Effects)
	if string(cmds[0][0]) != "XADD" || string(cmds[0][2]) != id {
		t.Fatalf("XADD effect = %q, assigned %q", cmds[0], id)
	}
}

func TestXRange(t *testing.T) {
	_, _, do := testEngine(t)
	do("XADD", "s", "1-0", "n", "1")
	do("XADD", "s", "2-0", "n", "2")
	do("XADD", "s", "3-0", "n", "3")
	v := do("XRANGE", "s", "-", "+")
	wantArrayLen(t, v, 3)
	v = do("XRANGE", "s", "2", "3")
	wantArrayLen(t, v, 2)
	v = do("XRANGE", "s", "-", "+", "COUNT", "1")
	wantArrayLen(t, v, 1)
	// Entry shape: [id, [f1, v1, ...]].
	entry := v.Array[0]
	wantArrayLen(t, entry, 2)
	if entry.Array[0].Text() != "1-0" {
		t.Fatalf("entry = %v", entry)
	}
	wantArrayLen(t, do("XRANGE", "missing", "-", "+"), 0)
}

func TestXDelAndXTrim(t *testing.T) {
	_, _, do := testEngine(t)
	for i := 1; i <= 5; i++ {
		do("XADD", "s", formatInt(int64(i))+"-0", "f", "v")
	}
	wantInt(t, do("XDEL", "s", "3-0", "99-0"), 1)
	wantInt(t, do("XLEN", "s"), 4)
	wantInt(t, do("XTRIM", "s", "MAXLEN", "2"), 2)
	wantInt(t, do("XLEN", "s"), 2)
	wantInt(t, do("XTRIM", "missing", "MAXLEN", "2"), 0)
}

func TestXAddMaxLen(t *testing.T) {
	_, _, do := testEngine(t)
	for i := 1; i <= 5; i++ {
		do("XADD", "s", "MAXLEN", "3", formatInt(int64(i))+"-0", "f", "v")
	}
	wantInt(t, do("XLEN", "s"), 3)
}

func TestXRead(t *testing.T) {
	_, _, do := testEngine(t)
	do("XADD", "a", "1-0", "f", "1")
	do("XADD", "a", "2-0", "f", "2")
	do("XADD", "b", "1-0", "g", "x")
	v := do("XREAD", "COUNT", "10", "STREAMS", "a", "b", "0", "0")
	wantArrayLen(t, v, 2)
	// [[key, entries], ...]
	if v.Array[0].Array[0].Text() != "a" {
		t.Fatalf("XREAD = %v", v)
	}
	wantArrayLen(t, v.Array[0].Array[1], 2)
	// From a later position.
	v = do("XREAD", "STREAMS", "a", "1-0")
	wantArrayLen(t, v.Array[0].Array[1], 1)
	// Nothing new → null array.
	v = do("XREAD", "STREAMS", "a", "$")
	if !v.Null {
		t.Fatalf("XREAD $ = %v", v)
	}
	wantErrPrefix(t, do("XREAD", "STREAMS", "a", "b", "0"), "ERR Unbalanced")
}
