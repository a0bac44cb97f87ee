// Package engine implements the in-memory execution engine: the command
// table, single-threaded execution semantics, and — critically for
// MemoryDB — the generation of the replication stream as *effects*
// (write-behind logging, paper §3.2). Non-deterministic commands such as
// SPOP are executed once on the primary and replicated as their
// deterministic effects; relative expirations are rewritten as absolute
// ones; atomic groups (MULTI/EXEC) replicate as a single record.
//
// The engine is deliberately not synchronized: exactly one goroutine (the
// node's workloop) may call Exec/Apply, mirroring Redis's single-threaded
// execution model.
package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/obs"
	"memorydb/internal/resp"
	"memorydb/internal/store"
	"memorydb/internal/trace"
)

// Version is the current engine version, stamped onto replication records
// for upgrade protection (§7.1).
const Version uint32 = 2

// Flags describe command properties.
type Flags uint8

// Command flags.
const (
	// FlagWrite marks commands that may mutate the keyspace.
	FlagWrite Flags = 1 << iota
	// FlagReadOnly marks pure reads (safe on replicas).
	FlagReadOnly
	// FlagFast marks O(1)-ish commands (informational).
	FlagFast
	// FlagLocal marks commands any node answers, whatever its role or the
	// client's READONLY state.
	FlagLocal
	// FlagKeyspace marks keyless reads whose result reflects the whole
	// keyspace, so they wait for every outstanding write.
	FlagKeyspace
)

// Command is one entry in the command table.
type Command struct {
	Name    string
	Arity   int // minimum argc including the name; negative = exact -Arity
	Flags   Flags
	Handler func(e *Engine, argv [][]byte) resp.Value
	// Key extraction spec (Redis-style): FirstKey/LastKey/KeyStep, all in
	// argv indices; LastKey -1 means "through the end".
	FirstKey, LastKey, KeyStep int
	// FindKeys, when set, finds the keys of a command whose keys move with
	// its arguments (a numkeys count, XREAD's STREAMS) in place of the spec.
	FindKeys func(argv [][]byte) [][]byte
	// SpanName names a traced run of the command, "cmd:" + Name: set by
	// the table, a constant per command.
	SpanName string
}

// Keys returns the key arguments of argv according to the command spec, as
// views of argv: a caller that keeps a key past the command must copy it.
// Keys at consecutive positions are a subslice of argv itself, so only a
// stepped spec (MSET's key-value pairs) or a numkeys count (ZDIFF's)
// allocates.
func (c *Command) Keys(argv [][]byte) [][]byte {
	if c.FindKeys != nil {
		return c.FindKeys(argv)
	}
	if c.FirstKey == 0 || len(argv) <= c.FirstKey {
		return nil
	}
	last := c.LastKey
	if last < 0 {
		last = len(argv) + last
	}
	last = min(last, len(argv)-1)
	step := max(c.KeyStep, 1)
	switch {
	case last < c.FirstKey:
		return nil
	case step == 1:
		return argv[c.FirstKey : last+1 : last+1]
	}
	keys := make([][]byte, 0, (last-c.FirstKey)/step+1)
	for i := c.FirstKey; i <= last; i += step {
		keys = append(keys, argv[i])
	}
	return keys
}

// numKeysAt is the FindKeys of a command whose argv[i] counts the keys
// that follow it, behind the keys before it (ZUNIONSTORE's destination):
// those alone when the count is not a number in 1..the arguments left.
func numKeysAt(i int) func(argv [][]byte) [][]byte {
	return func(argv [][]byte) [][]byte {
		if len(argv) <= i {
			return nil
		}
		if n, ok := parseInt(argv[i]); ok && n >= 1 && n < int64(len(argv)-i) {
			return slices.Concat(argv[1:i], argv[i+1:i+1+int(n)])
		}
		return argv[1:i:i]
	}
}

// streamKeys is XREAD's FindKeys: the first half of the arguments after
// STREAMS, whose second half are their IDs.
func streamKeys(argv [][]byte) [][]byte {
	i := slices.IndexFunc(argv, func(a []byte) bool { return strings.EqualFold(string(a), "STREAMS") })
	if rest := argv[i+1:]; i > 0 && len(rest)%2 == 0 {
		return rest[: len(rest)/2 : len(rest)/2]
	}
	return nil
}

// Writes reports whether the command may mutate.
func (c *Command) Writes() bool { return c.Flags&FlagWrite != 0 }

var commandTable = map[string]*Command{}

// maxNameLen bounds a command name, so Lookup folds into a stack buffer.
const maxNameLen = 32

func register(c *Command) {
	c.SpanName = "cmd:" + c.Name
	commandTable[c.Name] = c
}

// Lookup resolves a command name case-insensitively, without allocating:
// it upper-cases ASCII into a stack buffer and indexes the table. Nil for
// an unknown name.
func Lookup[N ~string | ~[]byte](name N) *Command {
	if len(name) > maxNameLen {
		return nil
	}
	var buf [maxNameLen]byte
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return commandTable[string(buf[:len(name)])]
}

// CommandNames returns every registered command name, sorted.
func CommandNames() []string {
	out := make([]string, 0, len(commandTable))
	for n := range commandTable {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Result is the outcome of executing one command (or one atomic batch).
type Result struct {
	Reply resp.Value
	// Effects is the replication record (§3.1): the deterministic commands
	// to replicate, RESP-encoded back to back — the framing delimits itself,
	// so records concatenate into larger records. Empty for a pure read that
	// caused no lazy expiry. The engine never writes to it again.
	Effects []byte
	// Keys are the keys whose data changed, in the order the commands
	// touched them, repeats included; the tracker hazards reads on them
	// until the covering log entry commits.
	Keys []string
}

// Mutated reports whether the command produced replication effects.
func (r *Result) Mutated() bool { return len(r.Effects) > 0 }

// Engine wraps a keyspace with command execution.
type Engine struct {
	db  *store.DB
	clk clock.Clock
	rng *rand.Rand // nil until the first random pick: see rand

	// obs, when set by the owning node, backs the LATENCY/SLOWLOG
	// introspection commands. The engine only reads from it.
	obs *obs.Metrics

	// trace / flight, when set by the owning node, back the TRACE and
	// DEBUG FLIGHT introspection commands. The engine only reads them.
	trace  *trace.Collector
	flight *trace.Flight

	// Per-command scratch state, reset by Exec — to nil, never truncated:
	// the previous command's slices belong to whoever took its Result.
	effects   []byte
	dirtyKeys []string
	applying  bool // true while replaying replicated effects

	// sweepPart is the store part the next SweepExpired starts at.
	sweepPart int
}

// SetObs attaches the observability registry the LATENCY and SLOWLOG
// commands report from. Nil detaches (the commands then return an error).
func (e *Engine) SetObs(m *obs.Metrics) { e.obs = m }

// SetTrace attaches the span collector the TRACE command reports from.
func (e *Engine) SetTrace(c *trace.Collector) { e.trace = c }

// SetFlight attaches the flight recorder DEBUG FLIGHT reports from.
func (e *Engine) SetFlight(f *trace.Flight) { e.flight = f }

// New returns an engine over a fresh keyspace.
func New(clk clock.Clock) *Engine {
	if clk == nil {
		clk = clock.NewReal()
	}
	return &Engine{db: store.NewDB(), clk: clk}
}

// rand is the source of the engine's random picks, seeded on first use: a
// seeded source is 5 KB to fill, and most engines never pick.
func (e *Engine) rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(0xda7aba5e))
	}
	return e.rng
}

// DB exposes the underlying keyspace (snapshotting, tests).
func (e *Engine) DB() *store.DB { return e.db }

// ResetDB replaces the engine's keyspace wholesale — the snapshot restore
// path builds a DB from a snapshot and swaps it in before log replay.
func (e *Engine) ResetDB(db *store.DB) { e.db = db }

// Now returns the engine's current time.
func (e *Engine) Now() time.Time { return e.clk.Now() }

// Exec executes one command, returning the reply and the replication
// effects. Only the node workloop may call it. The engine copies any
// argument bytes it keeps, so argv is the caller's again once Exec
// returns; the reply may still view it.
func (e *Engine) Exec(argv [][]byte) Result { return e.ExecCommand(lookupArgv(argv), argv) }

// ExecCommand is Exec for a command its caller already resolved: cmd is
// Lookup(argv[0]), nil when that is unknown. Result.Keys may repeat a key.
func (e *Engine) ExecCommand(cmd *Command, argv [][]byte) Result {
	e.effects = nil
	e.dirtyKeys = nil
	reply := e.run(cmd, argv)
	return Result{Reply: reply, Effects: e.effects, Keys: e.dirtyKeys}
}

// ExecBatch executes an atomic group (MULTI/EXEC or a script-like batch);
// cmds[i] resolves batch[i] as ExecCommand's cmd does. All replies are
// collected into one array and all effects into a single Result so the
// node can log them as one atomic record (§2.1, §3.2).
func (e *Engine) ExecBatch(batch [][][]byte, cmds []*Command) Result {
	e.effects = nil
	e.dirtyKeys = nil
	replies := make([]resp.Value, 0, len(batch))
	for i, argv := range batch {
		replies = append(replies, e.run(cmds[i], argv))
	}
	return Result{
		Reply:   resp.ArrayV(replies...),
		Effects: e.effects,
		Keys:    e.dirtyKeys,
	}
}

// Apply executes a replicated record payload: one or more RESP-encoded
// commands, applied without generating further effects. Replicas and
// recovering nodes use this to consume the transaction log. The commands
// run on views of record (DecodeRecord) and, as under Exec, the engine
// copies what it keeps: record is the caller's again once Apply returns.
func (e *Engine) Apply(record []byte) error {
	_, _, err := e.ApplyTracked(record)
	return err
}

// ApplyTracked is Apply with change attribution (the forkless snapshot
// builder needs it): it returns the deduplicated set of keys the record
// mutated. wholesale reports a command that rewrote the keyspace without
// touching individual keys (FLUSHALL/FLUSHDB) — per-key deltas cannot
// describe it, so the caller must fall back to a full snapshot.
func (e *Engine) ApplyTracked(record []byte) (keys []string, wholesale bool, err error) {
	cmds, err := DecodeRecord(record)
	if err != nil {
		return nil, false, err
	}
	e.applying = true
	defer func() { e.applying = false }()
	for _, argv := range cmds {
		e.effects = nil
		e.dirtyKeys = nil
		cmd := lookupArgv(argv)
		if reply := e.run(cmd, argv); reply.IsError() {
			return nil, false, fmt.Errorf("engine: replicated command %s failed: %s",
				strings.ToUpper(string(argv[0])), reply.Text())
		}
		if cmd.Name == "FLUSHALL" || cmd.Name == "FLUSHDB" {
			wholesale = true
		}
		if keys == nil {
			keys = e.dirtyKeys // the next command starts a new list
		} else {
			keys = append(keys, e.dirtyKeys...)
		}
	}
	return dedup(keys), wholesale, nil
}

// lookupArgv resolves argv's command name; nil for an empty argv.
func lookupArgv(argv [][]byte) *Command {
	if len(argv) == 0 {
		return nil
	}
	return Lookup(argv[0])
}

// run checks argv against its resolved command and executes it.
func (e *Engine) run(cmd *Command, argv [][]byte) resp.Value {
	switch {
	case len(argv) == 0:
		return resp.Err("ERR empty command")
	case cmd == nil:
		return resp.Errf("ERR unknown command '%s'", string(argv[0]))
	case cmd.Arity < 0 && len(argv) != -cmd.Arity, len(argv) < cmd.Arity:
		return wrongArity(cmd.Name)
	}
	return cmd.Handler(e, argv)
}

func wrongArity(name string) resp.Value {
	return resp.Errf("ERR wrong number of arguments for '%s' command", strings.ToLower(name))
}

// propagate records an effect command for the replication stream. During
// Apply (replica path) effects are suppressed.
func (e *Engine) propagate(argv ...[]byte) {
	if e.applying {
		return
	}
	e.effects = resp.AppendCommand(e.effects, argv...)
}

// propagateStrings is propagate over strings.
func (e *Engine) propagateStrings(argv ...string) {
	if e.applying {
		return
	}
	e.effects = resp.AppendCommand(e.effects, argv...)
}

// propagateVerbatim replicates the command exactly as received — the
// common case for deterministic writes.
func (e *Engine) propagateVerbatim(argv [][]byte) {
	e.propagate(argv...)
}

// touch marks key as mutated by the current command.
func (e *Engine) touch(key string) {
	e.dirtyKeys = append(e.dirtyKeys, key)
}

// lookup reads key, propagating a DEL effect if a lazy expiry fired (so
// replicas and the log observe deterministic expiry, §2.1). key does not
// escape — the dirty-key list gets its own copy of a reaped key — so a
// caller's string(argv[i]) conversion can stay off the heap.
func (e *Engine) lookup(key string) store.Object {
	obj, reaped := e.db.Lookup(key, e.Now())
	if reaped {
		k := strings.Clone(key)
		e.propagateStrings("DEL", k)
		e.touch(k)
	}
	return obj
}

// lookupKind reads key and enforces its kind, returning (zero, errReply)
// on a WRONGTYPE violation; (zero, ok) when absent.
func (e *Engine) lookupKind(key string, kind store.Kind) (store.Object, resp.Value, bool) {
	obj := e.lookup(key)
	if !obj.Exists() {
		return store.Object{}, resp.Value{}, true
	}
	if obj.Kind() != kind {
		return store.Object{}, wrongType(), false
	}
	return obj, resp.Value{}, true
}

// aggregateAt returns the aggregate of kind at key, first storing an empty
// one there when create is set and key holds nothing.
func (e *Engine) aggregateAt(key string, kind store.Kind, create bool) (store.Object, resp.Value, bool) {
	obj, errReply, ok := e.lookupKind(key, kind)
	if ok && !obj.Exists() && create {
		obj = store.New(kind)
		e.db.Set(key, obj)
	}
	return obj, errReply, ok
}

func wrongType() resp.Value {
	return resp.Err("WRONGTYPE Operation against a key holding the wrong kind of value")
}

func dedup(keys []string) []string {
	if len(keys) <= 1 {
		return keys
	}
	seen := make(map[string]struct{}, len(keys))
	out := keys[:0]
	for _, k := range keys {
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, k)
	}
	return out
}

// SweepExpired proactively expires up to limit keys, producing a DEL
// effect for each (the active expiry cycle). It visits the store parts
// round-robin from a cursor that moves past every part it starts, so the
// next cycle resumes at the part after the one this cycle stopped in: a
// part that always holds more than limit expired keys cannot starve the
// parts behind it.
func (e *Engine) SweepExpired(limit int) Result {
	e.effects = nil
	e.dirtyKeys = nil
	now := e.Now()
	for reaped, visited := 0, 0; reaped < limit && visited < store.NumParts; visited++ {
		part := e.sweepPart
		e.sweepPart = (part + 1) % store.NumParts
		for _, k := range e.db.SweepExpiredPart(now, limit-reaped, part) {
			e.propagateStrings("DEL", k)
			e.touch(k)
			reaped++
		}
	}
	return Result{Effects: e.effects, Keys: e.dirtyKeys}
}

// Parsing helpers shared by command handlers.

func parseInt(b []byte) (int64, bool) {
	n, err := strconv.ParseInt(string(b), 10, 64)
	return n, err == nil
}

func parseFloat(b []byte) (float64, bool) {
	f, err := strconv.ParseFloat(string(b), 64)
	return f, err == nil
}

func errNotInt() resp.Value {
	return resp.Err("ERR value is not an integer or out of range")
}

func errNotFloat() resp.Value {
	return resp.Err("ERR value is not a valid float")
}

func errSyntax() resp.Value {
	return resp.Err("ERR syntax error")
}

// fmtScore renders a zset score the way Redis replies (shortest
// round-trippable form).
func fmtScore(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
