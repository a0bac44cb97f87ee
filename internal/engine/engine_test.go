package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/resp"
	"memorydb/internal/store"
)

// testEngine returns an engine on a simulated clock (expiry tests advance
// it) and a helper that executes commands from strings.
func testEngine(t *testing.T) (*Engine, *clock.Sim, func(args ...string) resp.Value) {
	t.Helper()
	clk := clock.NewSim(time.Unix(1700000000, 0))
	e := New(clk)
	do := func(args ...string) resp.Value {
		argv := make([][]byte, len(args))
		for i, a := range args {
			argv[i] = []byte(a)
		}
		return e.Exec(argv).Reply
	}
	return e, clk, do
}

// exec returns the full Result for effect inspection.
func exec(e *Engine, args ...string) Result {
	argv := make([][]byte, len(args))
	for i, a := range args {
		argv[i] = []byte(a)
	}
	return e.Exec(argv)
}

func wantText(t *testing.T, v resp.Value, want string) {
	t.Helper()
	if v.Text() != want {
		t.Fatalf("reply = %v, want %q", v, want)
	}
}

func wantInt(t *testing.T, v resp.Value, want int64) {
	t.Helper()
	if v.Type != resp.Integer || v.Int != want {
		t.Fatalf("reply = %v, want :%d", v, want)
	}
}

func wantNil(t *testing.T, v resp.Value) {
	t.Helper()
	if !v.Null {
		t.Fatalf("reply = %v, want nil", v)
	}
}

func wantErrPrefix(t *testing.T, v resp.Value, prefix string) {
	t.Helper()
	if !v.IsError() || !strings.HasPrefix(v.Text(), prefix) {
		t.Fatalf("reply = %v, want error with prefix %q", v, prefix)
	}
}

func wantArrayLen(t *testing.T, v resp.Value, n int) {
	t.Helper()
	if v.Type != resp.Array || len(v.Array) != n {
		t.Fatalf("reply = %v, want array of %d", v, n)
	}
}

func TestUnknownCommand(t *testing.T) {
	_, _, do := testEngine(t)
	wantErrPrefix(t, do("NOTACOMMAND"), "ERR unknown command")
}

func TestArityChecks(t *testing.T) {
	_, _, do := testEngine(t)
	wantErrPrefix(t, do("GET"), "ERR wrong number of arguments")
	wantErrPrefix(t, do("GET", "a", "b"), "ERR wrong number of arguments")
	wantErrPrefix(t, do("SET", "k"), "ERR wrong number of arguments")
}

func TestWrongTypeErrors(t *testing.T) {
	_, _, do := testEngine(t)
	do("LPUSH", "list", "x")
	wantErrPrefix(t, do("GET", "list"), "WRONGTYPE")
	wantErrPrefix(t, do("INCR", "list"), "WRONGTYPE")
	wantErrPrefix(t, do("HGET", "list", "f"), "WRONGTYPE")
	wantErrPrefix(t, do("SADD", "list", "x"), "WRONGTYPE")
	wantErrPrefix(t, do("ZADD", "list", "1", "x"), "WRONGTYPE")
	do("SET", "str", "v")
	wantErrPrefix(t, do("LPUSH", "str", "x"), "WRONGTYPE")
}

// TestCommandTableKeySpecs pins the keys Command.Keys finds for a sample
// argv of every command whose keys are more than one fixed position: a
// range, a stepped list, a numkeys count or XREAD's STREAMS. Each such
// command needs a sample here, and a command with no key spec must be
// FlagLocal, FlagKeyspace or a flush: a keyless read would skip the read
// gate and route to the first shard.
func TestCommandTableKeySpecs(t *testing.T) {
	samples := []struct {
		cmd  string
		keys []string
	}{
		{"GET k", []string{"k"}},
		{"PING", nil},
		{"DEL a b", []string{"a", "b"}},
		{"EXISTS a b", []string{"a", "b"}},
		{"MGET a b c", []string{"a", "b", "c"}},
		{"MSET a 1 b 2", []string{"a", "b"}},
		{"MSETNX a 1 b 2", []string{"a", "b"}},
		{"PFCOUNT a b", []string{"a", "b"}},
		{"PFMERGE d a b", []string{"d", "a", "b"}},
		{"RENAME a b", []string{"a", "b"}},
		{"RENAMENX a b", []string{"a", "b"}},
		{"RPOPLPUSH a b", []string{"a", "b"}},
		{"SDIFF a b", []string{"a", "b"}},
		{"SDIFFSTORE d a b", []string{"d", "a", "b"}},
		{"SINTER a b", []string{"a", "b"}},
		{"SINTERCARD 2 a b", []string{"a", "b"}},
		{"SINTERCARD 1 s LIMIT 5", []string{"s"}},
		{"SINTERSTORE d a b", []string{"d", "a", "b"}},
		{"SMOVE s d m", []string{"s", "d"}},
		{"SUNION a b", []string{"a", "b"}},
		{"SUNIONSTORE d a b", []string{"d", "a", "b"}},
		{"TOUCH a b", []string{"a", "b"}},
		{"UNLINK a b", []string{"a", "b"}},
		{"XREAD STREAMS s 0", []string{"s"}},
		{"XREAD COUNT 2 STREAMS a b 0 $", []string{"a", "b"}},
		{"XREAD STREAMS a b 0", nil},
		{"ZDIFF 2 a b", []string{"a", "b"}},
		{"ZDIFF 1 a WITHSCORES", []string{"a"}},
		{"ZDIFF 3 a b", nil},
		{"ZINTERSTORE d 2 a b WEIGHTS 1 2", []string{"d", "a", "b"}},
		{"ZRANGESTORE d a 0 -1", []string{"d", "a"}},
		{"ZUNIONSTORE k2 1 k0", []string{"k2", "k0"}},
		{"ZUNIONSTORE d 2 a b AGGREGATE MAX", []string{"d", "a", "b"}},
		{"ZUNIONSTORE d x a", []string{"d"}},
	}
	sampled := map[string]bool{}
	for _, s := range samples {
		args := strings.Fields(s.cmd)
		argv := make([][]byte, len(args))
		for i, a := range args {
			argv[i] = []byte(a)
		}
		cmd := Lookup(args[0])
		if cmd == nil {
			t.Fatalf("Lookup(%s) missing", args[0])
		}
		sampled[args[0]] = true
		var got []string
		for _, k := range cmd.Keys(argv) {
			got = append(got, string(k))
		}
		if !slices.Equal(got, s.keys) {
			t.Errorf("%s: keys %q, want %q", s.cmd, got, s.keys)
		}
	}
	for _, name := range CommandNames() {
		c := Lookup(name)
		switch {
		case sampled[name], c.FirstKey > 0 && c.LastKey == c.FirstKey:
			// Pinned above, or one key at a fixed position.
		case c.Flags&(FlagLocal|FlagKeyspace) != 0, name == "FLUSHALL", name == "FLUSHDB":
			// Keyless by design.
		default:
			t.Errorf("%s has no sample here, and it neither takes one key at a fixed position "+
				"nor is local, keyspace-wide or a flush", name)
		}
	}
}

// TestLookupAllocatesNothing pins the one lookup a command's name gets:
// case-insensitive, and free of allocations.
func TestLookupAllocatesNothing(t *testing.T) {
	for _, name := range []string{"get", "GET", "gEt"} {
		b := []byte(name)
		allocs := testing.AllocsPerRun(100, func() {
			if Lookup(b) == nil {
				t.Fatalf("Lookup(%q) = nil", name)
			}
		})
		if allocs != 0 {
			t.Errorf("Lookup(%q): %.1f allocations, want 0", name, allocs)
		}
	}
	if Lookup("GETX") != nil || Lookup(bytes.Repeat([]byte("A"), maxNameLen+1)) != nil {
		t.Fatal("Lookup resolved a name no command has")
	}
	for _, name := range CommandNames() {
		if Lookup(strings.ToLower(name)) != commandTable[name] {
			t.Fatalf("Lookup(%q) misses a registered command (names are capped at %d bytes)", name, maxNameLen)
		}
	}
}

func TestCommandNamesSortedAndFlagged(t *testing.T) {
	names := CommandNames()
	if len(names) < 60 {
		t.Fatalf("only %d commands registered", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("CommandNames not sorted")
		}
	}
	get := Lookup("get") // case-insensitive
	if get == nil || get.Writes() {
		t.Fatal("GET lookup/flags broken")
	}
	set := Lookup("SET")
	if !set.Writes() {
		t.Fatal("SET must be a write")
	}
}

func TestExecBatchAtomicReplyAndEffects(t *testing.T) {
	e, _, _ := testEngine(t)
	res := e.execBatch([][][]byte{
		{[]byte("SET"), []byte("a"), []byte("1")},
		{[]byte("INCR"), []byte("a")},
		{[]byte("GET"), []byte("a")},
	})
	wantArrayLen(t, res.Reply, 3)
	if res.Reply.Array[2].Text() != "2" {
		t.Fatalf("batch GET = %v", res.Reply.Array[2])
	}
	if cmds, err := DecodeRecord(res.Effects); err != nil || len(cmds) != 2 {
		t.Fatalf("effects = %q (%v), want 2 commands", cmds, err)
	}
	// One entry per mutation, repeats included: no consumer needs them
	// deduplicated.
	if len(res.Keys) != 2 || res.Keys[0] != "a" || res.Keys[1] != "a" {
		t.Fatalf("keys = %v, want [a a]", res.Keys)
	}
}

func TestApplyReplicatesDeterministically(t *testing.T) {
	// Run a series of commands on a primary engine, apply the effect
	// records to a replica engine, and compare observable state.
	p, _, _ := testEngine(t)
	r, _, _ := testEngine(t)
	script := [][]string{
		{"SET", "s", "v"},
		{"APPEND", "s", "!"},
		{"INCR", "counter"},
		{"HSET", "h", "f1", "a", "f2", "b"},
		{"RPUSH", "l", "1", "2", "3"},
		{"LPOP", "l"},
		{"SADD", "set", "x", "y", "z"},
		{"SPOP", "set"},
		{"ZADD", "z", "1", "a", "2", "b"},
		{"ZINCRBY", "z", "5", "a"},
		{"PFADD", "hll", "e1", "e2"},
		{"EXPIRE", "s", "1000"},
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
		{"GET", "s"}, {"GET", "counter"}, {"HGETALL", "h"},
		{"LRANGE", "l", "0", "-1"}, {"SMEMBERS", "set"},
		{"ZRANGE", "z", "0", "-1", "WITHSCORES"}, {"PFCOUNT", "hll"},
		{"PTTL", "s"},
	} {
		pv := exec(p, probe...).Reply
		rv := exec(r, probe...).Reply
		if !pv.Equal(rv) {
			t.Fatalf("%v diverged: primary %v, replica %v", probe, pv, rv)
		}
	}
}

func TestApplySuppressesEffects(t *testing.T) {
	e, _, _ := testEngine(t)
	if err := e.Apply(resp.EncodeCommandStrings("SET", "k", "v")); err != nil {
		t.Fatal(err)
	}
	// A subsequent Exec must not see leaked effects.
	res := exec(e, "GET", "k")
	if res.Mutated() {
		t.Fatal("read after Apply leaked effects")
	}
	wantText(t, res.Reply, "v")
}

// TestApplyAllocationBound pins the replica apply path's footprint: one
// log entry carrying one SET costs the decoder's two slices, the stored
// buffer and a dirty-key list — four allocations, where copying each
// argument out of a bufio.Reader sized to the record cost 16, and
// upper-casing the command name one more.
func TestApplyAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	e, _, _ := testEngine(t)
	record := resp.EncodeCommandStrings("SET", "k", "v")
	allocs := testing.AllocsPerRun(200, func() {
		if err := e.Apply(record); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("Apply of a one-SET record: %.0f allocations, want <= 4", allocs)
	}
}

func TestApplyRejectsMalformedRecord(t *testing.T) {
	e, _, _ := testEngine(t)
	if err := e.Apply([]byte("*1\r\n$3\r\nab")); err == nil {
		t.Fatal("malformed record accepted")
	}
}

func TestSweepExpiredEmitsDeleteEffects(t *testing.T) {
	e, clk, do := testEngine(t)
	do("SET", "k", "v")
	do("PEXPIRE", "k", "100")
	clk.Advance(200 * time.Millisecond)
	res := e.SweepExpired(10)
	if !res.Mutated() {
		t.Fatal("sweep produced no effects")
	}
	cmds, err := DecodeRecord(res.Effects)
	if err != nil || len(cmds) != 1 || string(cmds[0][0]) != "DEL" {
		t.Fatalf("sweep effects = %v (%v)", cmds, err)
	}
}

// TestSweepExpiredIsFair: a part that always holds more expired keys than
// one sweep reaps cannot starve the parts behind it. An expired key in
// the last part is reaped while part 0 is refilled past the limit before
// every sweep.
func TestSweepExpiredIsFair(t *testing.T) {
	e, clk, do := testEngine(t)
	const limit = 4
	var hot []string
	last := ""
	for i := 0; len(hot) <= limit || last == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		switch store.PartOfKey([]byte(k)) {
		case 0:
			hot = append(hot, k)
		case store.NumParts - 1:
			last = k
		}
	}
	do("SET", last, "v")
	do("PEXPIRE", last, "1")
	for sweep := 0; sweep < store.NumParts; sweep++ {
		for _, k := range hot {
			do("SET", k, "v")
			do("PEXPIRE", k, "1")
		}
		clk.Advance(10 * time.Millisecond)
		e.SweepExpired(limit)
		if _, ok := e.DB().Peek(last); !ok {
			return
		}
	}
	t.Fatalf("%d sweeps never reaped the expired key in part %d", store.NumParts, store.NumParts-1)
}

func TestLazyExpiryOnReadEmitsDelete(t *testing.T) {
	e, clk, do := testEngine(t)
	do("SET", "k", "v")
	do("PEXPIRE", "k", "100")
	clk.Advance(time.Second)
	res := exec(e, "GET", "k")
	wantNil(t, res.Reply)
	cmds, _ := DecodeRecord(res.Effects)
	if len(cmds) != 1 {
		t.Fatalf("lazy expiry effects = %d", len(cmds))
	}
	if string(cmds[0][0]) != "DEL" || string(cmds[0][1]) != "k" {
		t.Fatalf("effect = %q", cmds[0])
	}
}

func TestRecordEncodeDecodeMulti(t *testing.T) {
	record := append(resp.EncodeCommandStrings("SET", "a", "1"), resp.EncodeCommandStrings("DEL", "b")...)
	cmds, err := DecodeRecord(record)
	if err != nil || len(cmds) != 2 {
		t.Fatalf("decode: %v %v", cmds, err)
	}
	if string(cmds[0][0]) != "SET" || string(cmds[1][0]) != "DEL" {
		t.Fatalf("cmds = %q", cmds)
	}
	// Empty record decodes to nothing.
	if cmds, err := DecodeRecord(nil); err != nil || len(cmds) != 0 {
		t.Fatalf("empty record: %v %v", cmds, err)
	}
}

// BenchmarkEngineDispatch measures the bare engine (no node, no log) as
// the baseline for core's BenchmarkNodeOpPath: a string's GET and SET, and
// the reads and writes of a 5-member hash, set and sorted set — each write
// rewrites a member the aggregate already holds, so the contents hold
// still — the rows a smaller aggregate encoding must beat.
func BenchmarkEngineDispatch(b *testing.B) {
	e := New(clock.NewReal())
	for _, load := range []string{"SET k v", "HSET h f1 v f2 v f3 v f4 v f5 v",
		"SADD s m1 m2 m3 m4 m5", "ZADD z 1 m1 2 m2 3 m3 4 m4 5 m5"} {
		exec(e, strings.Fields(load)...)
	}
	for _, cmd := range []string{"GET k", "SET k v", "HSET h f3 v", "HGET h f3",
		"SADD s m3", "SISMEMBER s m3", "ZADD z 3 m3", "ZSCORE z m3"} {
		args := strings.Fields(cmd)
		argv := make([][]byte, len(args))
		for i, a := range args {
			argv[i] = []byte(a)
		}
		b.Run(args[0], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Exec(argv)
			}
		})
	}
}
