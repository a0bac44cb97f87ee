package engine

import "testing"

func TestHSetHGet(t *testing.T) {
	_, _, do := testEngine(t)
	wantInt(t, do("HSET", "h", "f1", "v1", "f2", "v2"), 2)
	wantInt(t, do("HSET", "h", "f1", "updated", "f3", "v3"), 1) // only f3 is new
	wantText(t, do("HGET", "h", "f1"), "updated")
	wantNil(t, do("HGET", "h", "missing"))
	wantNil(t, do("HGET", "nohash", "f"))
	wantErrPrefix(t, do("HSET", "h", "f"), "ERR wrong number of arguments")
}

func TestHMSetHMGet(t *testing.T) {
	_, _, do := testEngine(t)
	wantText(t, do("HMSET", "h", "a", "1", "b", "2"), "OK")
	v := do("HMGET", "h", "a", "missing", "b")
	wantArrayLen(t, v, 3)
	if v.Array[0].Text() != "1" || !v.Array[1].Null || v.Array[2].Text() != "2" {
		t.Fatalf("HMGET = %v", v)
	}
}

func TestHSetNX(t *testing.T) {
	_, _, do := testEngine(t)
	wantInt(t, do("HSETNX", "h", "f", "v"), 1)
	wantInt(t, do("HSETNX", "h", "f", "other"), 0)
	wantText(t, do("HGET", "h", "f"), "v")
}

func TestHDelRemovesKeyWhenEmpty(t *testing.T) {
	_, _, do := testEngine(t)
	do("HSET", "h", "a", "1", "b", "2")
	wantInt(t, do("HDEL", "h", "a", "missing"), 1)
	wantInt(t, do("HDEL", "h", "b"), 1)
	wantInt(t, do("EXISTS", "h"), 0) // empty hash vanishes
	wantInt(t, do("HDEL", "h", "x"), 0)
}

func TestHGetAllSortedDeterministic(t *testing.T) {
	_, _, do := testEngine(t)
	do("HSET", "h", "z", "26", "a", "1", "m", "13")
	v := do("HGETALL", "h")
	wantArrayLen(t, v, 6)
	if v.Array[0].Text() != "a" || v.Array[2].Text() != "m" || v.Array[4].Text() != "z" {
		t.Fatalf("HGETALL order = %v", v)
	}
	wantArrayLen(t, do("HGETALL", "missing"), 0)
}

func TestHExistsHLenHKeysHVals(t *testing.T) {
	_, _, do := testEngine(t)
	do("HSET", "h", "b", "2", "a", "1")
	wantInt(t, do("HEXISTS", "h", "a"), 1)
	wantInt(t, do("HEXISTS", "h", "x"), 0)
	wantInt(t, do("HEXISTS", "missing", "a"), 0)
	wantInt(t, do("HLEN", "h"), 2)
	wantInt(t, do("HLEN", "missing"), 0)
	keys := do("HKEYS", "h")
	if keys.Array[0].Text() != "a" || keys.Array[1].Text() != "b" {
		t.Fatalf("HKEYS = %v", keys)
	}
	vals := do("HVALS", "h")
	if vals.Array[0].Text() != "1" || vals.Array[1].Text() != "2" {
		t.Fatalf("HVALS = %v", vals)
	}
	wantInt(t, do("HSTRLEN", "h", "a"), 1)
	wantInt(t, do("HSTRLEN", "h", "x"), 0)
}

func TestHIncrBy(t *testing.T) {
	_, _, do := testEngine(t)
	wantInt(t, do("HINCRBY", "h", "n", "5"), 5)
	wantInt(t, do("HINCRBY", "h", "n", "-3"), 2)
	do("HSET", "h", "s", "abc")
	wantErrPrefix(t, do("HINCRBY", "h", "s", "1"), "ERR hash value is not an integer")
	wantErrPrefix(t, do("HINCRBY", "h", "n", "abc"), "ERR value is not an integer")
}

func TestHIncrByFloat(t *testing.T) {
	_, _, do := testEngine(t)
	wantText(t, do("HINCRBYFLOAT", "h", "f", "1.5"), "1.5")
	wantText(t, do("HINCRBYFLOAT", "h", "f", "0.25"), "1.75")
}

func TestHIncrByReplicatesResult(t *testing.T) {
	e, _, _ := testEngine(t)
	res := exec(e, "HINCRBY", "h", "n", "7")
	cmds, _ := DecodeRecord(res.Effects)
	if string(cmds[0][0]) != "HSET" || string(cmds[0][3]) != "7" {
		t.Fatalf("HINCRBY effect = %q", cmds[0])
	}
}
