package engine

import "testing"

func TestPushPopBasics(t *testing.T) {
	_, _, do := testEngine(t)
	wantInt(t, do("RPUSH", "l", "a", "b", "c"), 3)
	wantInt(t, do("LPUSH", "l", "z"), 4)
	wantText(t, do("LPOP", "l"), "z")
	wantText(t, do("RPOP", "l"), "c")
	wantInt(t, do("LLEN", "l"), 2)
	wantNil(t, do("LPOP", "missing"))
	wantNil(t, do("RPOP", "missing"))
}

func TestPushXRequiresExisting(t *testing.T) {
	_, _, do := testEngine(t)
	wantInt(t, do("LPUSHX", "l", "x"), 0)
	wantInt(t, do("RPUSHX", "l", "x"), 0)
	do("RPUSH", "l", "a")
	wantInt(t, do("LPUSHX", "l", "x"), 2)
	wantInt(t, do("RPUSHX", "l", "y"), 3)
}

func TestPopWithCount(t *testing.T) {
	_, _, do := testEngine(t)
	do("RPUSH", "l", "a", "b", "c", "d")
	v := do("LPOP", "l", "2")
	wantArrayLen(t, v, 2)
	if v.Array[0].Text() != "a" || v.Array[1].Text() != "b" {
		t.Fatalf("LPOP count = %v", v)
	}
	v = do("RPOP", "l", "5") // more than present
	wantArrayLen(t, v, 2)
	if v.Array[0].Text() != "d" {
		t.Fatalf("RPOP count = %v", v)
	}
	wantInt(t, do("EXISTS", "l"), 0) // drained list vanishes
	// Popping 0 returns an empty result without touching the key.
	do("RPUSH", "l2", "a")
	wantArrayLen(t, do("LPOP", "l2", "0"), 0)
}

func TestPopReplicatesExactCount(t *testing.T) {
	e, _, do := testEngine(t)
	do("RPUSH", "l", "a", "b", "c")
	res := exec(e, "LPOP", "l", "5")
	cmds, _ := DecodeRecord(res.Effects)
	if string(cmds[0][0]) != "LPOP" || string(cmds[0][2]) != "3" {
		t.Fatalf("LPOP effect = %q", cmds[0])
	}
}

func TestRPopLPush(t *testing.T) {
	_, _, do := testEngine(t)
	do("RPUSH", "src", "a", "b", "c")
	wantText(t, do("RPOPLPUSH", "src", "dst"), "c")
	wantText(t, do("RPOPLPUSH", "src", "dst"), "b")
	v := do("LRANGE", "dst", "0", "-1")
	if v.Array[0].Text() != "b" || v.Array[1].Text() != "c" {
		t.Fatalf("dst = %v", v)
	}
	wantNil(t, do("RPOPLPUSH", "missing", "dst"))
	// Rotation: src == dst.
	do("RPUSH", "ring", "1", "2", "3")
	wantText(t, do("RPOPLPUSH", "ring", "ring"), "3")
	v = do("LRANGE", "ring", "0", "-1")
	if v.Array[0].Text() != "3" || v.Array[2].Text() != "2" {
		t.Fatalf("rotated ring = %v", v)
	}
}

func TestLRangeLIndexLSet(t *testing.T) {
	_, _, do := testEngine(t)
	do("RPUSH", "l", "a", "b", "c", "d")
	v := do("LRANGE", "l", "1", "2")
	wantArrayLen(t, v, 2)
	wantArrayLen(t, do("LRANGE", "l", "0", "-1"), 4)
	wantArrayLen(t, do("LRANGE", "missing", "0", "-1"), 0)
	wantText(t, do("LINDEX", "l", "0"), "a")
	wantText(t, do("LINDEX", "l", "-1"), "d")
	wantNil(t, do("LINDEX", "l", "99"))
	wantText(t, do("LSET", "l", "1", "B"), "OK")
	wantText(t, do("LINDEX", "l", "1"), "B")
	wantErrPrefix(t, do("LSET", "l", "99", "x"), "ERR index out of range")
	wantErrPrefix(t, do("LSET", "missing", "0", "x"), "ERR no such key")
}

func TestLRem(t *testing.T) {
	_, _, do := testEngine(t)
	do("RPUSH", "l", "x", "a", "x", "b", "x")
	wantInt(t, do("LREM", "l", "2", "x"), 2)
	wantInt(t, do("LREM", "l", "0", "x"), 1)
	wantInt(t, do("LREM", "missing", "0", "x"), 0)
}

func TestLTrim(t *testing.T) {
	_, _, do := testEngine(t)
	do("RPUSH", "l", "a", "b", "c", "d", "e")
	wantText(t, do("LTRIM", "l", "1", "3"), "OK")
	v := do("LRANGE", "l", "0", "-1")
	wantArrayLen(t, v, 3)
	if v.Array[0].Text() != "b" {
		t.Fatalf("after trim = %v", v)
	}
	// Trim to nothing deletes the key.
	do("LTRIM", "l", "5", "10")
	wantInt(t, do("EXISTS", "l"), 0)
}
