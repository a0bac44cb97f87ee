package engine

import "testing"

func TestZAddZScoreZCard(t *testing.T) {
	_, _, do := testEngine(t)
	wantInt(t, do("ZADD", "z", "1", "a", "2", "b"), 2)
	wantInt(t, do("ZADD", "z", "3", "a"), 0) // update, not add
	wantText(t, do("ZSCORE", "z", "a"), "3")
	wantNil(t, do("ZSCORE", "z", "missing"))
	wantNil(t, do("ZSCORE", "nokey", "a"))
	wantInt(t, do("ZCARD", "z"), 2)
	wantInt(t, do("ZCARD", "missing"), 0)
	wantErrPrefix(t, do("ZADD", "z", "notafloat", "m"), "ERR value is not a valid float")
}

func TestZAddOptions(t *testing.T) {
	_, _, do := testEngine(t)
	do("ZADD", "z", "5", "m")
	// NX: never update.
	wantInt(t, do("ZADD", "z", "NX", "9", "m"), 0)
	wantText(t, do("ZSCORE", "z", "m"), "5")
	// XX: never add.
	wantInt(t, do("ZADD", "z", "XX", "9", "new"), 0)
	wantNil(t, do("ZSCORE", "z", "new"))
	// GT: only increase.
	do("ZADD", "z", "GT", "3", "m")
	wantText(t, do("ZSCORE", "z", "m"), "5")
	do("ZADD", "z", "GT", "7", "m")
	wantText(t, do("ZSCORE", "z", "m"), "7")
	// LT: only decrease.
	do("ZADD", "z", "LT", "9", "m")
	wantText(t, do("ZSCORE", "z", "m"), "7")
	do("ZADD", "z", "LT", "2", "m")
	wantText(t, do("ZSCORE", "z", "m"), "2")
	// CH counts changes.
	wantInt(t, do("ZADD", "z", "CH", "4", "m", "1", "other"), 2)
	// INCR mode returns the new score.
	wantText(t, do("ZADD", "z", "INCR", "6", "m"), "10")
	// NX+XX invalid.
	wantErrPrefix(t, do("ZADD", "z", "NX", "XX", "1", "m"), "ERR GT, LT, and/or NX")
}

func TestZIncrBy(t *testing.T) {
	_, _, do := testEngine(t)
	wantText(t, do("ZINCRBY", "z", "2.5", "m"), "2.5")
	wantText(t, do("ZINCRBY", "z", "-1", "m"), "1.5")
}

func TestZRankZRevRank(t *testing.T) {
	_, _, do := testEngine(t)
	do("ZADD", "z", "1", "a", "2", "b", "3", "c")
	wantInt(t, do("ZRANK", "z", "a"), 0)
	wantInt(t, do("ZRANK", "z", "c"), 2)
	wantInt(t, do("ZREVRANK", "z", "c"), 0)
	wantNil(t, do("ZRANK", "z", "missing"))
	wantNil(t, do("ZRANK", "nokey", "a"))
}

func TestZRangeVariants(t *testing.T) {
	_, _, do := testEngine(t)
	do("ZADD", "z", "1", "a", "2", "b", "3", "c")
	v := do("ZRANGE", "z", "0", "-1")
	wantArrayLen(t, v, 3)
	v = do("ZRANGE", "z", "0", "1", "WITHSCORES")
	wantArrayLen(t, v, 4)
	if v.Array[1].Text() != "1" {
		t.Fatalf("WITHSCORES = %v", v)
	}
	v = do("ZREVRANGE", "z", "0", "0")
	if v.Array[0].Text() != "c" {
		t.Fatalf("ZREVRANGE = %v", v)
	}
	wantArrayLen(t, do("ZRANGE", "missing", "0", "-1"), 0)
	wantErrPrefix(t, do("ZRANGE", "z", "0", "1", "BOGUS"), "ERR syntax")
}

func TestZRangeByScore(t *testing.T) {
	_, _, do := testEngine(t)
	do("ZADD", "z", "1", "a", "2", "b", "3", "c", "4", "d")
	v := do("ZRANGEBYSCORE", "z", "2", "3")
	wantArrayLen(t, v, 2)
	v = do("ZRANGEBYSCORE", "z", "(1", "(4")
	wantArrayLen(t, v, 2)
	v = do("ZRANGEBYSCORE", "z", "-inf", "+inf")
	wantArrayLen(t, v, 4)
	v = do("ZRANGEBYSCORE", "z", "-inf", "+inf", "LIMIT", "1", "2")
	wantArrayLen(t, v, 2)
	if v.Array[0].Text() != "b" {
		t.Fatalf("LIMIT = %v", v)
	}
	wantErrPrefix(t, do("ZRANGEBYSCORE", "z", "x", "3"), "ERR min or max is not a float")
}

func TestZCount(t *testing.T) {
	_, _, do := testEngine(t)
	do("ZADD", "z", "1", "a", "2", "b", "3", "c")
	wantInt(t, do("ZCOUNT", "z", "2", "3"), 2)
	wantInt(t, do("ZCOUNT", "z", "(1", "+inf"), 2)
	wantInt(t, do("ZCOUNT", "missing", "-inf", "+inf"), 0)
}

func TestZPopMinMaxCommand(t *testing.T) {
	_, _, do := testEngine(t)
	do("ZADD", "z", "1", "a", "2", "b", "3", "c")
	v := do("ZPOPMIN", "z")
	wantArrayLen(t, v, 2)
	if v.Array[0].Text() != "a" {
		t.Fatalf("ZPOPMIN = %v", v)
	}
	v = do("ZPOPMAX", "z", "2")
	wantArrayLen(t, v, 4)
	if v.Array[0].Text() != "c" || v.Array[2].Text() != "b" {
		t.Fatalf("ZPOPMAX = %v", v)
	}
	wantInt(t, do("EXISTS", "z"), 0)
}

func TestZPopReplicatesAsZRem(t *testing.T) {
	e, _, _ := testEngine(t)
	exec(e, "ZADD", "z", "1", "a", "2", "b")
	res := exec(e, "ZPOPMIN", "z")
	cmds, _ := DecodeRecord(res.Effects)
	if string(cmds[0][0]) != "ZREM" || string(cmds[0][2]) != "a" {
		t.Fatalf("ZPOPMIN effect = %q", cmds[0])
	}
}

func TestZRemRangeByRankAndScore(t *testing.T) {
	_, _, do := testEngine(t)
	do("ZADD", "z", "1", "a", "2", "b", "3", "c", "4", "d")
	wantInt(t, do("ZREMRANGEBYRANK", "z", "0", "1"), 2)
	wantInt(t, do("ZCARD", "z"), 2)
	wantInt(t, do("ZREMRANGEBYSCORE", "z", "3", "3"), 1)
	wantInt(t, do("ZREMRANGEBYSCORE", "z", "-inf", "+inf"), 1)
	wantInt(t, do("EXISTS", "z"), 0)
	wantInt(t, do("ZREMRANGEBYRANK", "missing", "0", "-1"), 0)
}

func TestZRemMulti(t *testing.T) {
	_, _, do := testEngine(t)
	do("ZADD", "z", "1", "a", "2", "b")
	wantInt(t, do("ZREM", "z", "a", "missing", "b"), 2)
	wantInt(t, do("EXISTS", "z"), 0)
	wantInt(t, do("ZREM", "missing", "a"), 0)
}
