package engine

import (
	"testing"
	"time"
)

func TestSetGet(t *testing.T) {
	_, _, do := testEngine(t)
	wantText(t, do("SET", "k", "v"), "OK")
	wantText(t, do("GET", "k"), "v")
	wantNil(t, do("GET", "missing"))
}

func TestSetNXXXOptions(t *testing.T) {
	_, _, do := testEngine(t)
	wantNil(t, do("SET", "k", "v", "XX")) // absent + XX → nil
	wantText(t, do("SET", "k", "v", "NX"), "OK")
	wantNil(t, do("SET", "k", "v2", "NX")) // present + NX → nil
	wantText(t, do("GET", "k"), "v")
	wantText(t, do("SET", "k", "v2", "XX"), "OK")
	wantText(t, do("GET", "k"), "v2")
	wantErrPrefix(t, do("SET", "k", "v", "NX", "XX"), "ERR syntax")
	wantErrPrefix(t, do("SET", "k", "v", "BOGUS"), "ERR syntax")
}

func TestSetWithGetOption(t *testing.T) {
	_, _, do := testEngine(t)
	wantNil(t, do("SET", "k", "v1", "GET"))
	wantText(t, do("SET", "k", "v2", "GET"), "v1")
	// GET + NX on existing key returns old value and does not set.
	wantText(t, do("SET", "k", "v3", "NX", "GET"), "v2")
	wantText(t, do("GET", "k"), "v2")
}

func TestSetExpireOptions(t *testing.T) {
	e, clk, do := testEngine(t)
	wantText(t, do("SET", "k", "v", "EX", "10"), "OK")
	ttl := exec(e, "TTL", "k").Reply
	wantInt(t, ttl, 10)
	clk.Advance(11 * time.Second)
	wantNil(t, do("GET", "k"))

	wantText(t, do("SET", "k2", "v", "PX", "500"), "OK")
	clk.Advance(400 * time.Millisecond)
	wantText(t, do("GET", "k2"), "v")
	clk.Advance(200 * time.Millisecond)
	wantNil(t, do("GET", "k2"))

	wantErrPrefix(t, do("SET", "k", "v", "EX", "abc"), "ERR value is not an integer")
	wantErrPrefix(t, do("SET", "k", "v", "EX"), "ERR syntax")
}

func TestSetKeepTTLOption(t *testing.T) {
	_, _, do := testEngine(t)
	do("SET", "k", "v", "EX", "100")
	do("SET", "k", "v2", "KEEPTTL")
	wantInt(t, do("TTL", "k"), 100)
	do("SET", "k", "v3") // plain SET clears TTL
	wantInt(t, do("TTL", "k"), -1)
}

func TestSetReplicatesAbsoluteExpiry(t *testing.T) {
	e, clk, _ := testEngine(t)
	res := exec(e, "SET", "k", "v", "EX", "10")
	cmds, _ := DecodeRecord(res.Effects)
	if len(cmds) != 1 || string(cmds[0][3]) != "PXAT" {
		t.Fatalf("SET EX must replicate as PXAT: %q", cmds)
	}
	wantMs := clk.Now().UnixMilli() + 10000
	if string(cmds[0][4]) != formatInt(wantMs) {
		t.Fatalf("PXAT deadline = %q, want %d", cmds[0][4], wantMs)
	}
}

func formatInt(n int64) string {
	b := make([]byte, 0, 20)
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append(digits, byte('0'+n%10))
		n /= 10
	}
	for i := len(digits) - 1; i >= 0; i-- {
		b = append(b, digits[i])
	}
	return string(b)
}

func TestSetNXSetEX(t *testing.T) {
	_, clk, do := testEngine(t)
	wantInt(t, do("SETNX", "k", "v"), 1)
	wantInt(t, do("SETNX", "k", "v2"), 0)
	wantText(t, do("SETEX", "e", "5", "v"), "OK")
	wantInt(t, do("TTL", "e"), 5)
	wantText(t, do("PSETEX", "p", "500", "v"), "OK")
	clk.Advance(time.Second)
	wantNil(t, do("GET", "p"))
	wantErrPrefix(t, do("SETEX", "e", "0", "v"), "ERR invalid expire")
	wantErrPrefix(t, do("SETEX", "e", "-1", "v"), "ERR invalid expire")
}

func TestGetSetGetDel(t *testing.T) {
	_, _, do := testEngine(t)
	wantNil(t, do("GETSET", "k", "v1"))
	wantText(t, do("GETSET", "k", "v2"), "v1")
	wantText(t, do("GETDEL", "k"), "v2")
	wantNil(t, do("GET", "k"))
	wantNil(t, do("GETDEL", "missing"))
}

func TestAppendStrlen(t *testing.T) {
	_, _, do := testEngine(t)
	wantInt(t, do("APPEND", "k", "abc"), 3)
	wantInt(t, do("APPEND", "k", "def"), 6)
	wantText(t, do("GET", "k"), "abcdef")
	wantInt(t, do("STRLEN", "k"), 6)
	wantInt(t, do("STRLEN", "missing"), 0)
}

func TestGetRange(t *testing.T) {
	_, _, do := testEngine(t)
	do("SET", "k", "Hello World")
	wantText(t, do("GETRANGE", "k", "0", "4"), "Hello")
	wantText(t, do("GETRANGE", "k", "-5", "-1"), "World")
	wantText(t, do("GETRANGE", "k", "0", "-1"), "Hello World")
	wantText(t, do("GETRANGE", "k", "20", "30"), "")
	wantText(t, do("GETRANGE", "missing", "0", "1"), "")
}

func TestSetRange(t *testing.T) {
	_, _, do := testEngine(t)
	do("SET", "k", "Hello World")
	wantInt(t, do("SETRANGE", "k", "6", "Redis"), 11)
	wantText(t, do("GET", "k"), "Hello Redis")
	// Zero-padding past the end.
	wantInt(t, do("SETRANGE", "pad", "3", "x"), 4)
	got := do("GET", "pad")
	if string(got.Str) != "\x00\x00\x00x" {
		t.Fatalf("padded = %q", got.Str)
	}
	wantErrPrefix(t, do("SETRANGE", "k", "-1", "x"), "ERR offset is out of range")
	// A value may not outgrow proto-max-bulk-len (512 MB): refused before
	// anything is allocated.
	wantErrPrefix(t, do("SETRANGE", "k", "536870912", "x"), "ERR string exceeds maximum allowed size")
	wantText(t, do("GET", "k"), "Hello Redis")
}

func TestIncrDecrFamily(t *testing.T) {
	_, _, do := testEngine(t)
	wantInt(t, do("INCR", "n"), 1)
	wantInt(t, do("INCR", "n"), 2)
	wantInt(t, do("DECR", "n"), 1)
	wantInt(t, do("INCRBY", "n", "10"), 11)
	wantInt(t, do("DECRBY", "n", "5"), 6)
	do("SET", "s", "abc")
	wantErrPrefix(t, do("INCR", "s"), "ERR value is not an integer")
	wantErrPrefix(t, do("INCRBY", "n", "abc"), "ERR value is not an integer")
}

func TestIncrPreservesTTL(t *testing.T) {
	_, _, do := testEngine(t)
	do("SET", "n", "1", "EX", "100")
	do("INCR", "n")
	wantInt(t, do("TTL", "n"), 100)
}

func TestIncrOverflow(t *testing.T) {
	_, _, do := testEngine(t)
	do("SET", "n", "9223372036854775807")
	wantErrPrefix(t, do("INCR", "n"), "ERR increment or decrement would overflow")
	do("SET", "m", "-9223372036854775808")
	wantErrPrefix(t, do("DECR", "m"), "ERR increment or decrement would overflow")
}

func TestIncrByFloat(t *testing.T) {
	_, _, do := testEngine(t)
	wantText(t, do("INCRBYFLOAT", "f", "1.5"), "1.5")
	wantText(t, do("INCRBYFLOAT", "f", "2.25"), "3.75")
	wantErrPrefix(t, do("INCRBYFLOAT", "f", "nope"), "ERR value is not a valid float")
}

func TestIncrReplicatesResultingValue(t *testing.T) {
	e, _, do := testEngine(t)
	do("SET", "n", "41")
	res := exec(e, "INCR", "n")
	cmds, _ := DecodeRecord(res.Effects)
	if string(cmds[0][0]) != "SET" || string(cmds[0][2]) != "42" {
		t.Fatalf("INCR effect = %q", cmds[0])
	}
}

func TestMSetMGet(t *testing.T) {
	_, _, do := testEngine(t)
	wantText(t, do("MSET", "a", "1", "b", "2"), "OK")
	v := do("MGET", "a", "b", "missing")
	wantArrayLen(t, v, 3)
	if v.Array[0].Text() != "1" || v.Array[1].Text() != "2" || !v.Array[2].Null {
		t.Fatalf("MGET = %v", v)
	}
	wantErrPrefix(t, do("MSET", "a", "1", "b"), "ERR wrong number of arguments")
}

func TestMSetNX(t *testing.T) {
	_, _, do := testEngine(t)
	wantInt(t, do("MSETNX", "a", "1", "b", "2"), 1)
	wantInt(t, do("MSETNX", "b", "x", "c", "3"), 0)
	wantNil(t, do("GET", "c")) // all-or-nothing
	wantText(t, do("GET", "b"), "2")
}

func TestMGetSkipsWrongType(t *testing.T) {
	_, _, do := testEngine(t)
	do("LPUSH", "l", "x")
	do("SET", "s", "v")
	v := do("MGET", "l", "s")
	if !v.Array[0].Null || v.Array[1].Text() != "v" {
		t.Fatalf("MGET over wrong type = %v", v)
	}
}

// TestReplyUnchangedByLaterWrite is the immutability rule: a GET reply
// shares the stored value's bytes, and the connection writes it after the
// workloop has moved on, so no later command may rewrite them in place —
// the earlier reply must stay byte-identical whatever comes next.
func TestReplyUnchangedByLaterWrite(t *testing.T) {
	for _, tc := range []struct {
		name         string
		setup, write [][]string
	}{
		{"SETRANGE", [][]string{{"SET", "k", "hello"}}, [][]string{{"SETRANGE", "k", "0", "J"}}},
		{"SETBIT", [][]string{{"SET", "k", "hello"}}, [][]string{{"SETBIT", "k", "0", "1"}}},
		{"APPEND", [][]string{{"SET", "k", "hello"}, {"APPEND", "k", "!"}}, [][]string{{"APPEND", "k", "?"}, {"APPEND", "k", "??"}}},
		{"INCR", [][]string{{"SET", "k", "41"}}, [][]string{{"INCR", "k"}, {"INCRBYFLOAT", "k", "0.5"}}},
		{"SET", [][]string{{"SET", "k", "hello"}}, [][]string{{"SET", "k", "jello"}, {"MSET", "k", "yello"}, {"GETSET", "k", "cello"}}},
		{"PFADD", [][]string{{"PFADD", "k", "a"}}, [][]string{{"PFADD", "k", "b", "c", "d", "e", "f"}}},
		{"PFMERGE", [][]string{{"PFADD", "k", "a"}, {"PFADD", "src", "b", "c", "d"}}, [][]string{{"PFMERGE", "k", "src"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _, do := testEngine(t)
			for _, c := range tc.setup {
				if r := do(c...); r.IsError() {
					t.Fatalf("%v: %v", c, r)
				}
			}
			reply := do("GET", "k")
			before := string(reply.Str)
			for _, c := range tc.write {
				if r := do(c...); r.IsError() {
					t.Fatalf("%v: %v", c, r)
				}
			}
			if string(reply.Str) != before {
				t.Fatalf("an earlier GET reply changed under %v", tc.write)
			}
			if now := exec(e, "GET", "k").Reply; string(now.Str) == before {
				t.Fatalf("%v did not change the value", tc.write)
			}
		})
	}
}
