package engine

import (
	"bytes"
	"fmt"
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

func TestCommandTableKeySpecs(t *testing.T) {
	cases := []struct {
		cmd  []string
		keys []string
	}{
		{[]string{"GET", "k"}, []string{"k"}},
		{[]string{"MSET", "a", "1", "b", "2"}, []string{"a", "b"}},
		{[]string{"MGET", "a", "b", "c"}, []string{"a", "b", "c"}},
		{[]string{"SMOVE", "s", "d", "m"}, []string{"s", "d"}},
		{[]string{"PING"}, nil},
	}
	for _, c := range cases {
		cmd := Lookup(c.cmd[0])
		if cmd == nil {
			t.Fatalf("Lookup(%s) missing", c.cmd[0])
		}
		argv := make([][]byte, len(c.cmd))
		for i, a := range c.cmd {
			argv[i] = []byte(a)
		}
		got := cmd.Keys(argv)
		if len(got) != len(c.keys) {
			t.Fatalf("%v keys = %v, want %v", c.cmd, got, c.keys)
		}
		for i := range got {
			if string(got[i]) != c.keys[i] {
				t.Fatalf("%v keys = %v, want %v", c.cmd, got, c.keys)
			}
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
// the baseline for core's BenchmarkNodeOpPath.
func BenchmarkEngineDispatch(b *testing.B) {
	e := New(clock.NewReal())
	e.Exec([][]byte{[]byte("SET"), []byte("k"), []byte("v")})
	argv := [][]byte{[]byte("GET"), []byte("k")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Exec(argv)
	}
}
