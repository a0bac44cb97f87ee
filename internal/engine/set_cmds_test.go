package engine

import "testing"

func TestSAddSRemSCard(t *testing.T) {
	_, _, do := testEngine(t)
	wantInt(t, do("SADD", "s", "a", "b", "a"), 2)
	wantInt(t, do("SCARD", "s"), 2)
	wantInt(t, do("SREM", "s", "a", "missing"), 1)
	wantInt(t, do("SREM", "s", "b"), 1)
	wantInt(t, do("EXISTS", "s"), 0) // empty set vanishes
	wantInt(t, do("SCARD", "missing"), 0)
	wantInt(t, do("SREM", "missing", "x"), 0)
}

func TestSIsMemberSMembers(t *testing.T) {
	_, _, do := testEngine(t)
	do("SADD", "s", "b", "a")
	wantInt(t, do("SISMEMBER", "s", "a"), 1)
	wantInt(t, do("SISMEMBER", "s", "x"), 0)
	wantInt(t, do("SISMEMBER", "missing", "a"), 0)
	v := do("SMEMBERS", "s")
	wantArrayLen(t, v, 2)
	if v.Array[0].Text() != "a" { // deterministic sorted reply
		t.Fatalf("SMEMBERS = %v", v)
	}
}

func TestSPopReplicatesAsSRem(t *testing.T) {
	e, _, do := testEngine(t)
	do("SADD", "s", "a", "b", "c")
	res := exec(e, "SPOP", "s")
	if res.Reply.Null {
		t.Fatal("SPOP returned nil on non-empty set")
	}
	popped := res.Reply.Text()
	cmds, _ := DecodeRecord(res.Effects)
	if string(cmds[0][0]) != "SREM" || string(cmds[0][2]) != popped {
		t.Fatalf("SPOP effect = %q, popped %q", cmds[0], popped)
	}
	wantInt(t, do("SISMEMBER", "s", popped), 0)
}

func TestSPopCount(t *testing.T) {
	_, _, do := testEngine(t)
	do("SADD", "s", "a", "b", "c")
	v := do("SPOP", "s", "2")
	wantArrayLen(t, v, 2)
	wantInt(t, do("SCARD", "s"), 1)
	// Popping more than exists drains and deletes.
	v = do("SPOP", "s", "10")
	wantArrayLen(t, v, 1)
	wantInt(t, do("EXISTS", "s"), 0)
	wantNil(t, do("SPOP", "missing"))
	wantArrayLen(t, do("SPOP", "missing", "3"), 0)
}

func TestSRandMember(t *testing.T) {
	_, _, do := testEngine(t)
	do("SADD", "s", "a", "b", "c")
	v := do("SRANDMEMBER", "s")
	if v.Null {
		t.Fatal("SRANDMEMBER nil on non-empty set")
	}
	wantInt(t, do("SCARD", "s"), 3) // non-destructive
	// Positive count: distinct members, capped at cardinality.
	wantArrayLen(t, do("SRANDMEMBER", "s", "10"), 3)
	// Negative count: with replacement, exact length.
	wantArrayLen(t, do("SRANDMEMBER", "s", "-7"), 7)
	wantNil(t, do("SRANDMEMBER", "missing"))
}

func TestSMove(t *testing.T) {
	_, _, do := testEngine(t)
	do("SADD", "src", "a", "b")
	wantInt(t, do("SMOVE", "src", "dst", "a"), 1)
	wantInt(t, do("SISMEMBER", "dst", "a"), 1)
	wantInt(t, do("SMOVE", "src", "dst", "missing"), 0)
	wantInt(t, do("SMOVE", "nosrc", "dst", "a"), 0)
	// Moving the last member deletes the source.
	wantInt(t, do("SMOVE", "src", "dst", "b"), 1)
	wantInt(t, do("EXISTS", "src"), 0)
}

func TestSetOperations(t *testing.T) {
	_, _, do := testEngine(t)
	do("SADD", "s1", "a", "b", "c")
	do("SADD", "s2", "b", "c", "d")
	v := do("SINTER", "s1", "s2")
	wantArrayLen(t, v, 2)
	if v.Array[0].Text() != "b" || v.Array[1].Text() != "c" {
		t.Fatalf("SINTER = %v", v)
	}
	wantArrayLen(t, do("SUNION", "s1", "s2"), 4)
	v = do("SDIFF", "s1", "s2")
	wantArrayLen(t, v, 1)
	if v.Array[0].Text() != "a" {
		t.Fatalf("SDIFF = %v", v)
	}
	// Missing keys act as empty sets.
	wantArrayLen(t, do("SINTER", "s1", "missing"), 0)
	wantArrayLen(t, do("SDIFF", "s1", "missing"), 3)
}

func TestSetOpStores(t *testing.T) {
	_, _, do := testEngine(t)
	do("SADD", "s1", "a", "b", "c")
	do("SADD", "s2", "b", "c", "d")
	wantInt(t, do("SINTERSTORE", "dst", "s1", "s2"), 2)
	wantInt(t, do("SCARD", "dst"), 2)
	wantInt(t, do("SUNIONSTORE", "dst", "s1", "s2"), 4)
	wantInt(t, do("SDIFFSTORE", "dst", "s1", "s2"), 1)
	// Empty result deletes the destination.
	wantInt(t, do("SINTERSTORE", "dst", "s1", "missing"), 0)
	wantInt(t, do("EXISTS", "dst"), 0)
}

func TestSetOpStoreReplicatesMaterializedResult(t *testing.T) {
	e, _, _ := testEngine(t)
	exec(e, "SADD", "s1", "a", "b")
	exec(e, "SADD", "s2", "b", "c")
	res := exec(e, "SUNIONSTORE", "dst", "s1", "s2")
	cmds, _ := DecodeRecord(res.Effects)
	// DEL dst; SADD dst a b c — the result, not the recipe.
	if len(cmds) != 2 || string(cmds[0][0]) != "DEL" || string(cmds[1][0]) != "SADD" || len(cmds[1]) != 5 {
		t.Fatalf("store effects = %q", cmds)
	}
}
