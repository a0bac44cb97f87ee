package engine

import "testing"

func TestZUnionStore(t *testing.T) {
	_, _, do := testEngine(t)
	do("ZADD", "z1", "1", "a", "2", "b")
	do("ZADD", "z2", "10", "b", "20", "c")
	wantInt(t, do("ZUNIONSTORE", "dst", "2", "z1", "z2"), 3)
	v := do("ZRANGE", "dst", "0", "-1", "WITHSCORES")
	wantArrayLen(t, v, 6)
	// b = 2 + 10 = 12 under SUM.
	if v.Array[2].Text() != "b" || v.Array[3].Text() != "12" {
		t.Fatalf("union = %v", v)
	}
}

func TestZUnionStoreWeightsAndAggregate(t *testing.T) {
	_, _, do := testEngine(t)
	do("ZADD", "z1", "1", "a")
	do("ZADD", "z2", "5", "a")
	wantInt(t, do("ZUNIONSTORE", "dst", "2", "z1", "z2", "WEIGHTS", "10", "2"), 1)
	wantText(t, do("ZSCORE", "dst", "a"), "20") // 1×10 + 5×2 under SUM
	wantInt(t, do("ZUNIONSTORE", "dst", "2", "z1", "z2", "AGGREGATE", "MIN"), 1)
	wantText(t, do("ZSCORE", "dst", "a"), "1")
	wantInt(t, do("ZUNIONSTORE", "dst", "2", "z1", "z2", "AGGREGATE", "MAX"), 1)
	wantText(t, do("ZSCORE", "dst", "a"), "5")
	wantErrPrefix(t, do("ZUNIONSTORE", "dst", "2", "z1", "z2", "WEIGHTS", "1"), "ERR syntax")
	wantErrPrefix(t, do("ZUNIONSTORE", "dst", "2", "z1", "z2", "AGGREGATE", "AVG"), "ERR syntax")
	wantErrPrefix(t, do("ZUNIONSTORE", "dst", "0", "z1"), "ERR at least 1")
}

func TestZInterStore(t *testing.T) {
	_, _, do := testEngine(t)
	do("ZADD", "z1", "1", "a", "2", "b")
	do("ZADD", "z2", "10", "b", "20", "c")
	wantInt(t, do("ZINTERSTORE", "dst", "2", "z1", "z2"), 1)
	wantText(t, do("ZSCORE", "dst", "b"), "12")
	// Empty intersection deletes dst.
	do("ZADD", "z3", "1", "zzz")
	wantInt(t, do("ZINTERSTORE", "dst", "2", "z1", "z3"), 0)
	wantInt(t, do("EXISTS", "dst"), 0)
}

func TestZStoreAcceptsPlainSets(t *testing.T) {
	_, _, do := testEngine(t)
	do("SADD", "s", "a", "b")
	do("ZADD", "z", "5", "b")
	wantInt(t, do("ZUNIONSTORE", "dst", "2", "s", "z"), 2)
	wantText(t, do("ZSCORE", "dst", "a"), "1") // set members score 1
	wantText(t, do("ZSCORE", "dst", "b"), "6")
	do("LPUSH", "l", "x")
	wantErrPrefix(t, do("ZUNIONSTORE", "dst", "2", "s", "l"), "WRONGTYPE")
}

func TestZRangeStore(t *testing.T) {
	_, _, do := testEngine(t)
	do("ZADD", "src", "1", "a", "2", "b", "3", "c", "4", "d")
	wantInt(t, do("ZRANGESTORE", "dst", "src", "0", "1"), 2)
	v := do("ZRANGE", "dst", "0", "-1")
	if v.Array[0].Text() != "a" || v.Array[1].Text() != "b" {
		t.Fatalf("dst = %v", v)
	}
	// BYSCORE with LIMIT.
	wantInt(t, do("ZRANGESTORE", "dst", "src", "2", "4", "BYSCORE", "LIMIT", "1", "2"), 2)
	v = do("ZRANGE", "dst", "0", "-1")
	if v.Array[0].Text() != "c" || v.Array[1].Text() != "d" {
		t.Fatalf("byscore dst = %v", v)
	}
	// Empty result deletes dst.
	wantInt(t, do("ZRANGESTORE", "dst", "missing", "0", "-1"), 0)
	wantInt(t, do("EXISTS", "dst"), 0)
	wantErrPrefix(t, do("ZRANGESTORE", "dst", "src", "0", "1", "LIMIT", "0", "1"), "ERR syntax")
}

func TestZDiff(t *testing.T) {
	_, _, do := testEngine(t)
	do("ZADD", "z1", "1", "a", "2", "b", "3", "c")
	do("ZADD", "z2", "9", "b")
	v := do("ZDIFF", "2", "z1", "z2")
	wantArrayLen(t, v, 2)
	if v.Array[0].Text() != "a" || v.Array[1].Text() != "c" {
		t.Fatalf("ZDIFF = %v", v)
	}
	v = do("ZDIFF", "2", "z1", "z2", "WITHSCORES")
	wantArrayLen(t, v, 4)
	wantErrPrefix(t, do("ZDIFF", "9", "z1"), "ERR syntax")
}

func TestZStoreReplicatesMaterializedResult(t *testing.T) {
	p, _, _ := testEngine(t)
	r, _, _ := testEngine(t)
	exec(p, "ZADD", "z1", "1", "a", "2", "b")
	exec(p, "ZADD", "z2", "10", "b")
	res := exec(p, "ZUNIONSTORE", "dst", "2", "z1", "z2", "AGGREGATE", "MAX")
	cmds, _ := DecodeRecord(res.Effects)
	if len(cmds) != 2 || string(cmds[0][0]) != "DEL" || string(cmds[1][0]) != "ZADD" {
		t.Fatalf("effects = %q", cmds)
	}
	// Replica applying only the effects converges (needs no source keys).
	if err := r.Apply(res.Effects); err != nil {
		t.Fatal(err)
	}
	a := exec(p, "ZRANGE", "dst", "0", "-1", "WITHSCORES").Reply
	b := exec(r, "ZRANGE", "dst", "0", "-1", "WITHSCORES").Reply
	if !a.Equal(b) {
		t.Fatalf("diverged: %v vs %v", a, b)
	}
}
