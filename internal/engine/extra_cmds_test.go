package engine

import (
	"testing"
	"time"
)

func TestGetEx(t *testing.T) {
	_, clk, do := testEngine(t)
	do("SET", "k", "v")
	wantText(t, do("GETEX", "k"), "v") // plain GETEX: no TTL change
	wantInt(t, do("TTL", "k"), -1)
	wantText(t, do("GETEX", "k", "EX", "50"), "v")
	wantInt(t, do("TTL", "k"), 50)
	wantText(t, do("GETEX", "k", "PERSIST"), "v")
	wantInt(t, do("TTL", "k"), -1)
	do("GETEX", "k", "PX", "100")
	clk.Advance(time.Second)
	wantNil(t, do("GET", "k"))
	wantNil(t, do("GETEX", "missing"))
	do("SET", "k2", "v")
	wantErrPrefix(t, do("GETEX", "k2", "BOGUS"), "ERR syntax")
}

func TestGetExReplicatesTTLEffect(t *testing.T) {
	e, _, do := testEngine(t)
	do("SET", "k", "v")
	res := exec(e, "GETEX", "k", "EX", "10")
	cmds, _ := DecodeRecord(res.Effects)
	if len(cmds) != 1 || string(cmds[0][0]) != "PEXPIREAT" {
		t.Fatalf("GETEX effect = %q", cmds)
	}
	// Plain GETEX replicates nothing.
	res = exec(e, "GETEX", "k")
	if res.Mutated() {
		t.Fatal("plain GETEX produced effects")
	}
}

func TestTouchCountsExisting(t *testing.T) {
	_, _, do := testEngine(t)
	do("MSET", "a", "1", "b", "2")
	wantInt(t, do("TOUCH", "a", "b", "missing"), 2)
}

func TestExpireTimeFamily(t *testing.T) {
	_, clk, do := testEngine(t)
	wantInt(t, do("EXPIRETIME", "missing"), -2)
	do("SET", "k", "v")
	wantInt(t, do("EXPIRETIME", "k"), -1)
	do("EXPIRE", "k", "100")
	wantMs := clk.Now().UnixMilli() + 100000
	wantInt(t, do("PEXPIRETIME", "k"), wantMs)
	wantInt(t, do("EXPIRETIME", "k"), wantMs/1000)
}

func TestLPos(t *testing.T) {
	_, _, do := testEngine(t)
	do("RPUSH", "l", "a", "b", "c", "b", "b")
	wantInt(t, do("LPOS", "l", "b"), 1)
	wantNil(t, do("LPOS", "l", "zz"))
	wantNil(t, do("LPOS", "missing", "a"))
	// RANK 2: second occurrence.
	wantInt(t, do("LPOS", "l", "b", "RANK", "2"), 3)
	// Negative rank: from the tail.
	wantInt(t, do("LPOS", "l", "b", "RANK", "-1"), 4)
	// COUNT: multiple positions.
	v := do("LPOS", "l", "b", "COUNT", "2")
	wantArrayLen(t, v, 2)
	if v.Array[0].Int != 1 || v.Array[1].Int != 3 {
		t.Fatalf("LPOS COUNT = %v", v)
	}
	// COUNT 0: all.
	wantArrayLen(t, do("LPOS", "l", "b", "COUNT", "0"), 3)
	wantErrPrefix(t, do("LPOS", "l", "b", "RANK", "0"), "ERR RANK")
}

func TestLInsert(t *testing.T) {
	_, _, do := testEngine(t)
	do("RPUSH", "l", "a", "c")
	wantInt(t, do("LINSERT", "l", "BEFORE", "c", "b"), 3)
	v := do("LRANGE", "l", "0", "-1")
	if v.Array[1].Text() != "b" {
		t.Fatalf("after LINSERT BEFORE = %v", v)
	}
	wantInt(t, do("LINSERT", "l", "AFTER", "c", "d"), 4)
	v = do("LRANGE", "l", "0", "-1")
	if v.Array[3].Text() != "d" {
		t.Fatalf("after LINSERT AFTER = %v", v)
	}
	wantInt(t, do("LINSERT", "l", "BEFORE", "zz", "x"), -1)
	wantInt(t, do("LINSERT", "missing", "BEFORE", "a", "x"), 0)
	wantErrPrefix(t, do("LINSERT", "l", "SIDEWAYS", "a", "x"), "ERR syntax")
}

func TestSMIsMember(t *testing.T) {
	_, _, do := testEngine(t)
	do("SADD", "s", "a", "b")
	v := do("SMISMEMBER", "s", "a", "x", "b")
	wantArrayLen(t, v, 3)
	if v.Array[0].Int != 1 || v.Array[1].Int != 0 || v.Array[2].Int != 1 {
		t.Fatalf("SMISMEMBER = %v", v)
	}
	v = do("SMISMEMBER", "missing", "a")
	if v.Array[0].Int != 0 {
		t.Fatalf("SMISMEMBER missing = %v", v)
	}
}

func TestSInterCard(t *testing.T) {
	_, _, do := testEngine(t)
	do("SADD", "s1", "a", "b", "c")
	do("SADD", "s2", "b", "c", "d")
	wantInt(t, do("SINTERCARD", "2", "s1", "s2"), 2)
	wantInt(t, do("SINTERCARD", "2", "s1", "s2", "LIMIT", "1"), 1)
	wantInt(t, do("SINTERCARD", "2", "s1", "s2", "LIMIT", "0"), 2)
	wantErrPrefix(t, do("SINTERCARD", "0", "s1"), "ERR numkeys")
	wantErrPrefix(t, do("SINTERCARD", "5", "s1"), "ERR Number of keys")
}

func TestZMScore(t *testing.T) {
	_, _, do := testEngine(t)
	do("ZADD", "z", "1", "a", "2", "b")
	v := do("ZMSCORE", "z", "a", "missing", "b")
	wantArrayLen(t, v, 3)
	if v.Array[0].Text() != "1" || !v.Array[1].Null || v.Array[2].Text() != "2" {
		t.Fatalf("ZMSCORE = %v", v)
	}
	v = do("ZMSCORE", "nokey", "a")
	if !v.Array[0].Null {
		t.Fatalf("ZMSCORE nokey = %v", v)
	}
}

func TestHRandField(t *testing.T) {
	_, _, do := testEngine(t)
	do("HSET", "h", "a", "1", "b", "2", "c", "3")
	v := do("HRANDFIELD", "h")
	if v.Null {
		t.Fatal("HRANDFIELD nil on non-empty hash")
	}
	wantArrayLen(t, do("HRANDFIELD", "h", "10"), 3) // distinct, capped
	wantArrayLen(t, do("HRANDFIELD", "h", "-5"), 5) // with replacement
	wantArrayLen(t, do("HRANDFIELD", "h", "2", "WITHVALUES"), 4)
	wantNil(t, do("HRANDFIELD", "missing"))
	wantArrayLen(t, do("HRANDFIELD", "missing", "3"), 0)
}

func TestSetBitGetBit(t *testing.T) {
	_, _, do := testEngine(t)
	wantInt(t, do("SETBIT", "b", "7", "1"), 0)
	wantInt(t, do("GETBIT", "b", "7"), 1)
	wantInt(t, do("GETBIT", "b", "6"), 0)
	wantInt(t, do("GETBIT", "b", "1000"), 0) // past the end
	wantInt(t, do("SETBIT", "b", "7", "0"), 1)
	wantInt(t, do("GETBIT", "b", "7"), 0)
	wantErrPrefix(t, do("SETBIT", "b", "-1", "1"), "ERR bit offset")
	wantErrPrefix(t, do("SETBIT", "b", "0", "2"), "ERR bit")
	// The string grows to cover the offset.
	do("SETBIT", "b2", "20", "1")
	wantInt(t, do("STRLEN", "b2"), 3)
}

func TestBitCount(t *testing.T) {
	_, _, do := testEngine(t)
	do("SET", "k", "foobar")
	wantInt(t, do("BITCOUNT", "k"), 26)
	wantInt(t, do("BITCOUNT", "k", "0", "0"), 4)
	wantInt(t, do("BITCOUNT", "k", "1", "1"), 6)
	wantInt(t, do("BITCOUNT", "k", "-2", "-1"), 7) // "ar" = 3 + 4 set bits
	wantInt(t, do("BITCOUNT", "missing"), 0)
}

func TestExtraCommandsReplicate(t *testing.T) {
	p, _, _ := testEngine(t)
	r, _, _ := testEngine(t)
	script := [][]string{
		{"RPUSH", "l", "a", "c"},
		{"LINSERT", "l", "BEFORE", "c", "b"},
		{"SETBIT", "bits", "10", "1"},
		{"SET", "s", "v"},
		{"GETEX", "s", "EX", "500"},
	}
	for _, cmd := range script {
		res := exec(p, cmd...)
		if res.Reply.IsError() {
			t.Fatalf("%v: %v", cmd, res.Reply)
		}
		if err := r.Apply(res.Effects); err != nil {
			t.Fatalf("Apply(%v): %v", cmd, err)
		}
	}
	for _, probe := range [][]string{
		{"LRANGE", "l", "0", "-1"}, {"GETBIT", "bits", "10"}, {"PTTL", "s"},
	} {
		a, b := exec(p, probe...).Reply, exec(r, probe...).Reply
		if !a.Equal(b) {
			t.Fatalf("%v diverged: %v vs %v", probe, a, b)
		}
	}
}
