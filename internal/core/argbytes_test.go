package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/election"
	"memorydb/internal/engine"
	"memorydb/internal/netsim"
	"memorydb/internal/resp"
	"memorydb/internal/txlog"
)

// TestNodeKeepsNoArgumentBytes: a command's argument bytes are the
// caller's again once Node.Do returns. The RESP reader hands each command
// one buffer, so a view kept anywhere downstream — the store, the log
// record, the hazard index — would pin that buffer and see it change. Each
// write's argv is zeroed as soon as its call returns; later reads, and an
// engine replaying the log, must still see the original bytes.
func TestNodeKeepsNoArgumentBytes(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	ctx := context.Background()
	a, b := crossSlotPair(t)
	read := func(args ...string) [][]byte {
		argv, err := resp.NewReader(bytes.NewReader(resp.EncodeCommandStrings(args...))).ReadCommand()
		if err != nil {
			t.Fatal(err)
		}
		return argv
	}
	zero := func(argv [][]byte) {
		for _, arg := range argv {
			clear(arg)
		}
	}
	for _, args := range [][]string{
		{"SET", "s", "string-value"},
		{"MSET", a, "value-a", b, "value-b"},
		{"HSET", "h", "field", "hash-value"},
		{"RPUSH", "l", "first", "second"},
		{"SET", "e", "expiring"},
		{"EXPIRE", "e", "1000"},
	} {
		argv := read(args...)
		v, err := n.Do(ctx, argv)
		zero(argv)
		if err != nil || v.IsError() {
			t.Fatalf("%q: %v %v", args, v, err)
		}
	}
	batch := [][][]byte{read("SET", "t", "batch-value"), read("HSET", "h", "f2", "batch-field")}
	v, err := n.DoBatch(ctx, batch)
	for _, argv := range batch {
		zero(argv)
	}
	if err != nil || v.IsError() {
		t.Fatalf("MULTI/EXEC: %v %v", v, err)
	}

	check := func(where string, exec func(args ...string) resp.Value) {
		t.Helper()
		for _, c := range []struct {
			args []string
			want string
		}{
			{[]string{"GET", "s"}, "string-value"},
			{[]string{"GET", a}, "value-a"},
			{[]string{"GET", b}, "value-b"},
			{[]string{"HGET", "h", "field"}, "hash-value"},
			{[]string{"LINDEX", "l", "1"}, "second"},
			{[]string{"GET", "e"}, "expiring"},
			{[]string{"GET", "t"}, "batch-value"},
			{[]string{"HGET", "h", "f2"}, "batch-field"},
		} {
			if got := exec(c.args...); got.Text() != c.want {
				t.Errorf("%s: %q = %v, want %q", where, c.args, got, c.want)
			}
		}
		if ttl := exec("TTL", "e"); ttl.Int <= 0 || ttl.Int > 1000 {
			t.Errorf("%s: TTL e = %v, want (0, 1000]", where, ttl)
		}
	}
	check("node", func(args ...string) resp.Value { return mustDo(t, n, args...) })

	eng := engine.New(clock.NewReal())
	if _, err := txlog.NewReplayer(engine.Version, 0).Range(log, txlog.EntryID{}, log.CommittedTail(),
		func(e txlog.Entry) error { return eng.Apply(e.Payload) }); err != nil {
		t.Fatal(err)
	}
	check("log replay", func(args ...string) resp.Value {
		argv := make([][]byte, len(args))
		for i, arg := range args {
			argv[i] = []byte(arg)
		}
		return eng.Exec(argv).Reply
	})
}
