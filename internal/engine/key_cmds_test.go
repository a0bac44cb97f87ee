package engine

import (
	"testing"
	"time"
)

func TestDelExists(t *testing.T) {
	_, _, do := testEngine(t)
	do("SET", "a", "1")
	do("SET", "b", "2")
	wantInt(t, do("EXISTS", "a", "b", "missing", "a"), 3) // counts repeats
	wantInt(t, do("DEL", "a", "missing", "b"), 2)
	wantInt(t, do("EXISTS", "a"), 0)
	wantInt(t, do("UNLINK", "a"), 0)
}

func TestType(t *testing.T) {
	_, _, do := testEngine(t)
	do("SET", "s", "v")
	do("LPUSH", "l", "x")
	do("HSET", "h", "f", "v")
	do("SADD", "st", "m")
	do("ZADD", "z", "1", "m")
	do("XADD", "x", "*", "f", "v")
	cases := map[string]string{
		"s": "string", "l": "list", "h": "hash", "st": "set", "z": "zset", "x": "stream",
		"missing": "none",
	}
	for k, want := range cases {
		wantText(t, do("TYPE", k), want)
	}
}

func TestExpireFamily(t *testing.T) {
	_, clk, do := testEngine(t)
	do("SET", "k", "v")
	wantInt(t, do("EXPIRE", "k", "10"), 1)
	wantInt(t, do("TTL", "k"), 10)
	wantInt(t, do("PEXPIRE", "k", "5000"), 1)
	wantInt(t, do("PTTL", "k"), 5000)
	at := clk.Now().Add(20 * time.Second).Unix()
	wantInt(t, do("EXPIREAT", "k", formatInt(at)), 1)
	wantInt(t, do("TTL", "k"), 20)
	wantInt(t, do("EXPIRE", "missing", "10"), 0)
	wantErrPrefix(t, do("EXPIRE", "k", "abc"), "ERR value is not an integer")
}

func TestExpireInPastDeletes(t *testing.T) {
	e, _, do := testEngine(t)
	do("SET", "k", "v")
	res := exec(e, "EXPIRE", "k", "-1")
	wantInt(t, res.Reply, 1)
	wantNil(t, do("GET", "k"))
	// Replicates as DEL, not PEXPIREAT.
	cmds, _ := DecodeRecord(res.Effects)
	if string(cmds[0][0]) != "DEL" {
		t.Fatalf("past expiry effect = %q", cmds[0])
	}
}

func TestExpireReplicatesAbsolute(t *testing.T) {
	e, clk, do := testEngine(t)
	do("SET", "k", "v")
	res := exec(e, "EXPIRE", "k", "10")
	cmds, _ := DecodeRecord(res.Effects)
	if string(cmds[0][0]) != "PEXPIREAT" {
		t.Fatalf("EXPIRE effect = %q", cmds[0])
	}
	want := clk.Now().UnixMilli() + 10000
	if string(cmds[0][2]) != formatInt(want) {
		t.Fatalf("deadline = %q, want %d", cmds[0][2], want)
	}
}

func TestPersistAndTTLStates(t *testing.T) {
	_, _, do := testEngine(t)
	wantInt(t, do("TTL", "missing"), -2)
	do("SET", "k", "v")
	wantInt(t, do("TTL", "k"), -1)
	do("EXPIRE", "k", "100")
	wantInt(t, do("PERSIST", "k"), 1)
	wantInt(t, do("TTL", "k"), -1)
	wantInt(t, do("PERSIST", "k"), 0)
	wantInt(t, do("PERSIST", "missing"), 0)
}

func TestKeysAndDBSize(t *testing.T) {
	_, _, do := testEngine(t)
	do("MSET", "user:1", "a", "user:2", "b", "item:1", "c")
	v := do("KEYS", "user:*")
	wantArrayLen(t, v, 2)
	if v.Array[0].Text() != "user:1" { // sorted
		t.Fatalf("KEYS = %v", v)
	}
	wantInt(t, do("DBSIZE"), 3)
}

// TestDBSizeIsACount pins DBSIZE as a count of live keys that allocates
// nothing per key: it once listed the whole keyspace to take its length.
func TestDBSizeIsACount(t *testing.T) {
	e, clk, do := testEngine(t)
	const keys = 10_000
	for i := 0; i < keys; i++ {
		k := "key:" + formatInt(int64(i))
		do("SET", k, "v")
		if i%10 == 0 {
			do("PEXPIRE", k, formatInt(int64(500+i%20*100))) // half pass in the second below
		}
	}
	clk.Advance(time.Second)
	argv := [][]byte{[]byte("DBSIZE")}
	wantInt(t, e.Exec(argv).Reply, keys-keys/20)
	if allocs := testing.AllocsPerRun(100, func() { e.Exec(argv) }); allocs > 2 {
		t.Errorf("DBSIZE over %d keys allocates %.0f times, want <= 2", keys, allocs)
	}
}

func TestScanIteratesEverything(t *testing.T) {
	_, _, do := testEngine(t)
	for i := 0; i < 25; i++ {
		do("SET", "k"+formatInt(int64(i)), "v")
	}
	cursor := "0"
	seen := map[string]bool{}
	for rounds := 0; rounds < 100; rounds++ {
		v := do("SCAN", cursor, "COUNT", "7")
		wantArrayLen(t, v, 2)
		for _, k := range v.Array[1].Array {
			seen[k.Text()] = true
		}
		cursor = v.Array[0].Text()
		if cursor == "0" {
			break
		}
	}
	if len(seen) != 25 {
		t.Fatalf("SCAN saw %d keys, want 25", len(seen))
	}
}

func TestScanMatch(t *testing.T) {
	_, _, do := testEngine(t)
	do("MSET", "a1", "x", "a2", "x", "b1", "x")
	v := do("SCAN", "0", "MATCH", "a*", "COUNT", "100")
	wantArrayLen(t, v.Array[1], 2)
	wantErrPrefix(t, do("SCAN", "abc"), "ERR invalid cursor")
	wantErrPrefix(t, do("SCAN", "0", "COUNT", "0"), "ERR syntax")
}

func TestRename(t *testing.T) {
	_, _, do := testEngine(t)
	do("SET", "a", "v", "EX", "50")
	wantText(t, do("RENAME", "a", "b"), "OK")
	wantNil(t, do("GET", "a"))
	wantText(t, do("GET", "b"), "v")
	wantInt(t, do("TTL", "b"), 50) // TTL travels with the key
	wantErrPrefix(t, do("RENAME", "missing", "x"), "ERR no such key")
	// An aggregate carries its key: it must be found under the new one.
	do("HSET", "h", "f", "v")
	wantText(t, do("RENAME", "h", "h2"), "OK")
	wantInt(t, do("EXISTS", "h"), 0)
	wantText(t, do("HGET", "h2", "f"), "v")
	wantText(t, do("RENAME", "h2", "h"), "OK")
	wantText(t, do("HGET", "h", "f"), "v")
}

func TestRenameNX(t *testing.T) {
	_, _, do := testEngine(t)
	do("SET", "a", "1")
	do("SET", "b", "2")
	wantInt(t, do("RENAMENX", "a", "b"), 0)
	wantText(t, do("GET", "b"), "2")
	wantInt(t, do("RENAMENX", "a", "c"), 1)
	wantText(t, do("GET", "c"), "1")
}

func TestFlushAll(t *testing.T) {
	_, _, do := testEngine(t)
	do("MSET", "a", "1", "b", "2")
	wantText(t, do("FLUSHALL"), "OK")
	wantInt(t, do("DBSIZE"), 0)
}

func TestPingEchoTime(t *testing.T) {
	_, _, do := testEngine(t)
	wantText(t, do("PING"), "PONG")
	wantText(t, do("ECHO", "hello"), "hello")
	v := do("TIME")
	wantArrayLen(t, v, 2)
}

func TestRandomKeyCommand(t *testing.T) {
	_, _, do := testEngine(t)
	wantNil(t, do("RANDOMKEY"))
	do("SET", "only", "v")
	wantText(t, do("RANDOMKEY"), "only")
}

func TestCommandIntrospection(t *testing.T) {
	_, _, do := testEngine(t)
	v := do("COMMAND")
	if v.Type != 42 && len(v.Array) < 60 { // resp.Array == '*'
		t.Fatalf("COMMAND = %v", v)
	}
	// Each row: name, arity, flags, firstkey, lastkey, keystep.
	row := v.Array[0]
	wantArrayLen(t, row, 6)
}
