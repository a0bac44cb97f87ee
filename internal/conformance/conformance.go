// Package conformance implements the consistency testing framework of
// paper §7.2.2.2: commands are generated from the engine's own command
// table (so coverage tracks the API as it grows), with *argument
// biasing* toward small key pools and edge-case values, and the
// replication contract is checked differentially — a replica that
// applies the primary's effect stream must reach an identical keyspace,
// no matter how non-deterministic the original commands were.
package conformance

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/engine"
	"memorydb/internal/store"
)

// GenConfig tunes the command generator.
type GenConfig struct {
	Seed int64
	// Keys is the key-pool size; small pools maximize type collisions
	// (the edge cases WRONGTYPE handling must survive).
	Keys int
	// TemplateBias is the probability of drawing from the curated valid
	// templates instead of fuzzing from the command spec.
	TemplateBias float64
}

// Generator produces biased command invocations covering the whole
// registered command table.
type Generator struct {
	cfg   GenConfig
	rng   *rand.Rand
	names []string
}

// NewGenerator builds a generator over the engine's command table.
func NewGenerator(cfg GenConfig) *Generator {
	if cfg.Keys <= 0 {
		cfg.Keys = 6
	}
	if cfg.TemplateBias == 0 {
		cfg.TemplateBias = 0.6
	}
	return &Generator{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		names: engine.CommandNames(),
	}
}

// Curated templates: $k expands to a pooled key, $v to a biased value,
// $i to a small integer, $f to a float, $m to a member name, $x to one of
// the first stream IDs XADD * assigns on the pair's frozen clock.
var templates = [][]string{
	{"SET", "$k", "$v"},
	{"SET", "$k", "$v", "EX", "$i"},
	{"SET", "$k", "$v", "NX"},
	{"SET", "$k", "$v", "XX"},
	{"GET", "$k"},
	{"GETSET", "$k", "$v"},
	{"GETDEL", "$k"},
	{"APPEND", "$k", "$v"},
	{"INCR", "$k"},
	{"INCRBY", "$k", "$i"},
	{"INCRBYFLOAT", "$k", "$f"},
	{"SETRANGE", "$k", "$i", "$v"},
	{"GETRANGE", "$k", "0", "-1"},
	{"STRLEN", "$k"},
	{"DEL", "$k"},
	{"EXISTS", "$k"},
	{"EXPIRE", "$k", "$i"},
	{"PEXPIREAT", "$k", "99999999999999"},
	{"PERSIST", "$k"},
	{"TTL", "$k"},
	{"TYPE", "$k"},
	{"RENAME", "$k", "$k"},
	{"HSET", "$k", "$m", "$v"},
	{"HSET", "$k", "$m", "$v", "$m", "$v"},
	{"HGET", "$k", "$m"},
	{"HDEL", "$k", "$m"},
	{"HGETALL", "$k"},
	{"HINCRBY", "$k", "$m", "$i"},
	{"HRANDFIELD", "$k", "$i"},
	{"LPUSH", "$k", "$v", "$v"},
	{"RPUSH", "$k", "$v"},
	{"LPOP", "$k"},
	{"RPOP", "$k", "$i"},
	{"LRANGE", "$k", "0", "-1"},
	{"LREM", "$k", "0", "$v"},
	{"LTRIM", "$k", "0", "$i"},
	{"LSET", "$k", "0", "$v"},
	{"LINSERT", "$k", "BEFORE", "$v", "$v"},
	{"LPOS", "$k", "$v"},
	{"RPOPLPUSH", "$k", "$k"},
	{"SADD", "$k", "$m", "$m"},
	{"SREM", "$k", "$m"},
	{"SPOP", "$k"},
	{"SPOP", "$k", "$i"},
	{"SRANDMEMBER", "$k", "$i"},
	{"SMEMBERS", "$k"},
	{"SMOVE", "$k", "$k", "$m"},
	{"SINTERSTORE", "$k", "$k", "$k"},
	{"SUNIONSTORE", "$k", "$k", "$k"},
	{"SDIFFSTORE", "$k", "$k", "$k"},
	{"ZADD", "$k", "$f", "$m"},
	{"ZADD", "$k", "GT", "$f", "$m"},
	{"ZINCRBY", "$k", "$f", "$m"},
	{"ZREM", "$k", "$m"},
	{"ZPOPMIN", "$k"},
	{"ZPOPMAX", "$k", "$i"},
	{"ZRANGEBYSCORE", "$k", "-inf", "+inf"},
	{"ZREMRANGEBYRANK", "$k", "0", "$i"},
	{"ZREMRANGEBYSCORE", "$k", "0", "$f"},
	{"XADD", "$k", "*", "$m", "$v"},
	{"XTRIM", "$k", "MAXLEN", "$i"},
	// Removal churn: members come and go while their keys live on, which
	// is what moves an aggregate's used_bytes both ways. The adds of
	// several members let an aggregate grow past one before a removal.
	{"SADD", "$k", "$m", "$m", "$m"},
	{"ZADD", "$k", "$f", "$m", "$f", "$m", "$f", "$m"},
	{"RPUSH", "$k", "$v", "$v", "$v"},
	{"XADD", "$k", "*", "$m", "$v", "$m", "$v"},
	{"XADD", "$k", "MAXLEN", "1", "*", "$m", "$v"},
	{"HDEL", "$k", "$m", "$m"},
	{"SREM", "$k", "$m", "$m"},
	{"ZREM", "$k", "$m", "$m"},
	{"LREM", "$k", "$i", "$v"},
	{"LTRIM", "$k", "1", "-1"},
	{"XDEL", "$k", "$x"},
	{"XRANGE", "$k", "-", "+"},
	{"PFADD", "$k", "$v", "$v"},
	{"PFCOUNT", "$k"},
	{"PFMERGE", "$k", "$k"},
	{"SETBIT", "$k", "$i", "1"},
	{"GETBIT", "$k", "$i"},
	{"GETEX", "$k", "EX", "$i"},
	{"MSET", "$k", "$v", "$k", "$v"},
	{"MSETNX", "$k", "$v"},
	{"SETNX", "$k", "$v"},
	{"SETEX", "$k", "$i", "$v"},
}

// biased scalar pools (§7.2.2.2 argument biasing).
var (
	biasedValues = []string{"", "0", "1", "-1", "x", "value", "9223372036854775807", "with spaces", "\x00bin\xff"}
	biasedInts   = []string{"0", "1", "2", "5", "-1", "100"}
	biasedFloats = []string{"0", "1.5", "-2.25", "1e3", "3.14159"}
	biasedMember = []string{"m1", "m2", "m3", "field", "a"}
)

// Next returns one command invocation.
func (g *Generator) Next() []string {
	if g.rng.Float64() < g.cfg.TemplateBias {
		t := templates[g.rng.Intn(len(templates))]
		out := make([]string, len(t))
		for i, tok := range t {
			out[i] = g.expand(tok)
		}
		return out
	}
	return g.fuzzFromSpec()
}

func (g *Generator) expand(tok string) string {
	switch tok {
	case "$k":
		return fmt.Sprintf("key%d", g.rng.Intn(g.cfg.Keys))
	case "$v":
		if g.rng.Intn(3) == 0 {
			return biasedValues[g.rng.Intn(len(biasedValues))]
		}
		return fmt.Sprintf("v%d", g.rng.Intn(1000))
	case "$i":
		return biasedInts[g.rng.Intn(len(biasedInts))]
	case "$f":
		return biasedFloats[g.rng.Intn(len(biasedFloats))]
	case "$m":
		return biasedMember[g.rng.Intn(len(biasedMember))]
	case "$x":
		return fmt.Sprintf("%d-%d", pairStart.UnixMilli(), g.rng.Intn(4))
	}
	return tok
}

// fuzzFromSpec builds an invocation straight from the command table: key
// positions get pooled keys, everything else gets biased scalars. Most
// results are semantic errors — which is the point: error paths must be
// deterministic and effect-free too.
func (g *Generator) fuzzFromSpec() []string {
	name := g.names[g.rng.Intn(len(g.names))]
	cmd := engine.Lookup(name)
	argc := cmd.Arity
	if argc < 0 {
		argc = -argc
	}
	argc += g.rng.Intn(3)
	if argc < 1 {
		argc = 1
	}
	out := make([]string, argc)
	out[0] = strings.ToLower(name)
	for i := 1; i < argc; i++ {
		isKey := cmd.FirstKey > 0 && i >= cmd.FirstKey &&
			(cmd.LastKey < 0 || i <= cmd.LastKey) &&
			(cmd.KeyStep <= 1 || (i-cmd.FirstKey)%cmd.KeyStep == 0)
		if isKey {
			out[i] = fmt.Sprintf("key%d", g.rng.Intn(g.cfg.Keys))
			continue
		}
		pools := [][]string{biasedValues, biasedInts, biasedFloats, biasedMember}
		pool := pools[g.rng.Intn(len(pools))]
		out[i] = pool[g.rng.Intn(len(pool))]
	}
	return out
}

// NewEnginePair returns two engines on the same frozen simulated clock,
// so time-dependent state (TTLs, stream auto-IDs) is comparable.
func NewEnginePair() (primary, replica *engine.Engine) {
	return engine.New(clock.NewSim(pairStart)), engine.New(clock.NewSim(pairStart))
}

// pairStart is the instant NewEnginePair's clocks stand at.
var pairStart = time.Unix(1700000000, 0)

// ChargeDivergence describes the first aggregate kind two keyspaces are
// charged differently for — the sum of the Cost of their keys of that kind
// — or returns "" when they are charged alike. Keyspaces that hold the
// same contents must be: an aggregate's charge follows its contents, not
// how they were built. A string is charged its buffer, whose size is
// history (APPEND grows it to a power of two; a restore sizes it to the
// value), so strings are left out.
func ChargeDivergence(a, b *store.DB) string {
	var charged [2][store.KindStream + 1]int64
	for i, db := range []*store.DB{a, b} {
		db.ForEach(time.Time{}, func(_ string, obj store.Object, _ int64) bool {
			charged[i][obj.Kind()] += obj.Cost()
			return true
		})
	}
	for k := store.KindHash; k <= store.KindStream; k++ {
		if charged[0][k] != charged[1][k] {
			return fmt.Sprintf("used_bytes for %s keys: %d against %d", k, charged[0][k], charged[1][k])
		}
	}
	return ""
}

// StateDigest canonically serializes an engine's full keyspace: keys
// sorted, container contents in deterministic order, TTLs included. Two
// engines with equal digests are observably identical.
func StateDigest(e *engine.Engine) string {
	db := e.DB()
	var keys []string
	db.ForEach(time.Time{}, func(k string, _ store.Object, _ int64) bool {
		keys = append(keys, k)
		return true
	})
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		obj, _ := db.Peek(k)
		fmt.Fprintf(&b, "%q %s ", k, obj.Kind())
		switch obj.Kind() {
		case store.KindString:
			fmt.Fprintf(&b, "%q", obj.Str())
		case store.KindHash:
			for _, f := range obj.Hash().Fields() {
				v, _ := obj.Hash().Get(f)
				fmt.Fprintf(&b, "%q=%q ", f, v)
			}
		case store.KindList:
			obj.List().Walk(func(v []byte) bool {
				fmt.Fprintf(&b, "%q ", v)
				return true
			})
		case store.KindSet:
			for _, m := range obj.Set().Members() {
				fmt.Fprintf(&b, "%q ", m)
			}
		case store.KindZSet:
			for _, en := range obj.ZSet().Range(0, obj.ZSet().Len()-1) {
				fmt.Fprintf(&b, "%q=%v ", en.Member, en.Score)
			}
		case store.KindStream:
			obj.Stream().Walk(func(en store.StreamEntry) bool {
				fmt.Fprintf(&b, "%s[", en.ID)
				for _, f := range en.Fields {
					fmt.Fprintf(&b, "%q ", f)
				}
				b.WriteString("] ")
				return true
			})
		}
		if exp, ok := db.ExpireAt(k); ok {
			fmt.Fprintf(&b, "ttl=%d", exp)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RunDifferential executes rounds generated commands on primary,
// applies each resulting effect record to replica, and after every
// mutating command compares the two: it reports the first command that
// diverged their keyspaces, or what used_bytes charges each kind in them
// (empty string = none). It also returns how many commands succeeded vs
// errored, so callers can assert real coverage.
func RunDifferential(g *Generator, primary, replica *engine.Engine, rounds int) (divergence string, okCount, errCount int) {
	for i := 0; i < rounds; i++ {
		args := g.Next()
		argv := make([][]byte, len(args))
		for j, a := range args {
			argv[j] = []byte(a)
		}
		res := primary.Exec(argv)
		if res.Reply.IsError() {
			errCount++
			if res.Mutated() {
				return fmt.Sprintf("command %q errored (%s) but produced effects", args, res.Reply.Text()), okCount, errCount
			}
			continue
		}
		okCount++
		if !res.Mutated() {
			continue
		}
		if err := replica.Apply(res.Effects); err != nil {
			return fmt.Sprintf("replica rejected effects of %q: %v", args, err), okCount, errCount
		}
		if pd, rd := StateDigest(primary), StateDigest(replica); pd != rd {
			return fmt.Sprintf("command %d %q diverged the keyspaces:\nprimary:\n%s\nreplica:\n%s", i+1, args, pd, rd), okCount, errCount
		}
		if d := ChargeDivergence(primary.DB(), replica.DB()); d != "" {
			return fmt.Sprintf("command %d %q diverged primary and replica in %s", i+1, args, d), okCount, errCount
		}
	}
	return "", okCount, errCount
}
