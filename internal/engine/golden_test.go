package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
)

// goldenRecordSHA256 was computed at the commit before Result.Effects
// became the record itself (904600b, where a record was the concatenation
// of a result's separately encoded effects) over goldenCommands: the bytes
// that reach the log did not move.
const goldenRecordSHA256 = "c246bb4e08480c401d302f8042cce947e2d9b5f60bb360f4d690253473d3ea46"

// goldenCommands covers every shape an effect takes: propagated verbatim,
// rewritten to absolute time or to the deterministic outcome, several
// effects from one command, and the lazy-expiry DEL a read produces.
var goldenCommands = []string{
	"SET s1 v1",
	"SET s2 v2 EX 100",
	"SET s3 v3 PX 1500",
	"SET s1 v1b KEEPTTL",
	"SET s1 v1c GET",
	"SETNX s4 v4",
	"SETEX s5 10 v5",
	"PSETEX s6 2500 v6",
	"GETSET s1 v1d",
	"GETDEL s4",
	"APPEND s1 -tail",
	"SETRANGE s1 1 XY",
	"INCR n1",
	"INCRBY n1 41",
	"DECR n1",
	"INCRBYFLOAT f1 1.5",
	"MSET m1 a m2 b m3 c",
	"MSETNX m4 d m5 e",
	"SETBIT b1 7 1",
	"EXPIRE s1 50",
	"PEXPIRE m1 5000",
	"EXPIREAT m2 1700000500",
	"PERSIST s1",
	"GETEX m3 EX 20",
	"GETEX m3 PERSIST",
	"RENAME m4 m4b",
	"DEL m5 nosuch",
	"HSET h1 f1 v1 f2 v2",
	"HSETNX h1 f3 v3",
	"HINCRBY h1 c 5",
	"HINCRBYFLOAT h1 g 0.25",
	"HDEL h1 f2",
	"RPUSH l1 a b c d e",
	"LPUSH l1 z",
	"LPOP l1",
	"RPOP l1 2",
	"RPOPLPUSH l1 l2",
	"LSET l1 0 A",
	"LINSERT l1 BEFORE A pre",
	"LTRIM l1 0 1",
	"SADD t1 a b c d e f",
	"SADD t2 c d e x",
	"SPOP t1",
	"SPOP t1 2",
	"SMOVE t2 t1 x",
	"SINTERSTORE t3 t1 t2",
	"SUNIONSTORE t3 t1 t2",
	"SDIFFSTORE t3 t9 t8",
	"ZADD z1 1 a 2 b 3 c 4 d",
	"ZADD z1 INCR 2.5 a",
	"ZINCRBY z1 1.25 b",
	"ZPOPMIN z1",
	"ZPOPMAX z1 1",
	"ZREMRANGEBYRANK z1 0 0",
	"ZADD z2 1 a 5 q",
	"ZUNIONSTORE z3 2 z1 z2",
	"ZINTERSTORE z3 2 z1 z9",
	"ZRANGESTORE z5 z2 0 -1",
	"XADD x1 * f v",
	"XADD x1 MAXLEN 1 * f v2",
	"XADD x1 1700000000999-* g w",
	"XTRIM x1 MAXLEN 1",
	"PFADD p1 a b c",
	"PFMERGE p2 p1",
}

// TestRecordBytesGolden pins the log's byte format: the records the
// engine produces for a fixed command list — then an expired key read
// lazily, a MULTI group and an active-expiry sweep — hash to a constant.
func TestRecordBytesGolden(t *testing.T) {
	log := bytes.Join(goldenRecords(t), nil)
	if _, err := DecodeRecord(log); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(log)
	if got := hex.EncodeToString(sum[:]); got != goldenRecordSHA256 {
		t.Fatalf("record bytes moved: sha256 %s, want %s\n%q", got, goldenRecordSHA256, log)
	}
}

// goldenRecords returns the records TestRecordBytesGolden hashes, in order.
func goldenRecords(t testing.TB) [][]byte {
	t.Helper()
	clk := clock.NewSim(time.Unix(1700000000, 0))
	e := New(clk)
	var records [][]byte
	for _, line := range goldenCommands {
		res := exec(e, strings.Fields(line)...)
		if res.Reply.IsError() {
			t.Fatalf("%s: %v", line, res.Reply)
		}
		if !res.Mutated() {
			t.Fatalf("%s produced no effect", line)
		}
		records = append(records, res.Effects)
	}
	// s3 expires and a GET reaps it lazily; s6 expires next and is swept
	// (one key per step: the sweep visits a map, so its order is not fixed).
	clk.Advance(2 * time.Second)
	res := exec(e, "GET", "s3")
	if !res.Reply.Null || !res.Mutated() {
		t.Fatalf("lazy expiry: reply %v, mutated %v", res.Reply, res.Mutated())
	}
	records = append(records, res.Effects)
	res = e.execBatch([][][]byte{
		{[]byte("SET"), []byte("g1"), []byte("1")},
		{[]byte("INCR"), []byte("g1")},
		{[]byte("GET"), []byte("g1")},
		{[]byte("SPOP"), []byte("t2")},
		{[]byte("EXPIRE"), []byte("g1"), []byte("30")},
	})
	records = append(records, res.Effects)
	clk.Advance(time.Second)
	res = e.SweepExpired(100)
	if len(res.Keys) != 1 || res.Keys[0] != "s6" {
		t.Fatalf("sweep reaped %v, want s6", res.Keys)
	}
	return append(records, res.Effects)
}

// TestEffectsNeverAliased: the record one call returned is the caller's —
// nothing the engine executes later may write into it.
func TestEffectsNeverAliased(t *testing.T) {
	e, clk, _ := testEngine(t)
	type kept struct{ rec, copy []byte }
	var held []kept
	keep := func(res Result) {
		rec := res.Effects
		// Spare capacity counts too: a later append must not land in it.
		rec = rec[:cap(rec)]
		held = append(held, kept{rec, append([]byte(nil), rec...)})
	}
	keep(exec(e, "SET", "a", "1", "PX", "5"))
	keep(exec(e, "SADD", "s", "x", "y", "z"))
	keep(e.execBatch([][][]byte{{[]byte("INCR"), []byte("n")}, {[]byte("SPOP"), []byte("s")}}))
	clk.Advance(time.Second)
	keep(exec(e, "GET", "a"))
	keep(exec(e, "SET", "b", "2", "PX", "5"))
	clk.Advance(time.Second)
	keep(e.SweepExpired(10))
	keep(exec(e, "MSET", "c", "3", "d", "4"))
	exec(e, "GET", "c")
	for i, k := range held {
		if string(k.rec) != string(k.copy) {
			t.Fatalf("record %d changed after later calls: %q, was %q", i, k.rec, k.copy)
		}
	}
}
