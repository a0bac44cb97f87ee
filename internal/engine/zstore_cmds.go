package engine

import (
	"strings"

	"memorydb/internal/resp"
	"memorydb/internal/store"
)

func init() {
	register(&Command{Name: "ZUNIONSTORE", Arity: 4, Flags: FlagWrite, Handler: cmdZUnionStore, FirstKey: 1, LastKey: 1, KeyStep: 1, FindKeys: numKeysAt(2)})
	register(&Command{Name: "ZINTERSTORE", Arity: 4, Flags: FlagWrite, Handler: cmdZInterStore, FirstKey: 1, LastKey: 1, KeyStep: 1, FindKeys: numKeysAt(2)})
	register(&Command{Name: "ZRANGESTORE", Arity: 5, Flags: FlagWrite, Handler: cmdZRangeStore, FirstKey: 1, LastKey: 2, KeyStep: 1})
	register(&Command{Name: "ZDIFF", Arity: 3, Flags: FlagReadOnly, Handler: cmdZDiff, FindKeys: numKeysAt(1)})
}

type zaggMode int

const (
	aggSum zaggMode = iota
	aggMin
	aggMax
)

// parseZStoreArgs parses "numkeys key... [WEIGHTS w...] [AGGREGATE
// SUM|MIN|MAX]" starting at argv[2].
func parseZStoreArgs(e *Engine, argv [][]byte) (keys []string, weights []float64, agg zaggMode, errReply resp.Value, ok bool) {
	numKeys, okN := parseInt(argv[2])
	if !okN || numKeys <= 0 {
		return nil, nil, 0, resp.Err("ERR at least 1 input key is needed"), false
	}
	if numKeys > int64(len(argv))-3 {
		return nil, nil, 0, errSyntax(), false
	}
	for _, k := range argv[3 : 3+numKeys] {
		keys = append(keys, string(k))
	}
	weights = make([]float64, len(keys))
	for i := range weights {
		weights[i] = 1
	}
	rest := argv[3+numKeys:]
	for i := 0; i < len(rest); i++ {
		switch strings.ToUpper(string(rest[i])) {
		case "WEIGHTS":
			if i+len(keys) >= len(rest) {
				return nil, nil, 0, errSyntax(), false
			}
			for j := 0; j < len(keys); j++ {
				w, okF := parseFloat(rest[i+1+j])
				if !okF {
					return nil, nil, 0, resp.Err("ERR weight value is not a float"), false
				}
				weights[j] = w
			}
			i += len(keys)
		case "AGGREGATE":
			if i+1 >= len(rest) {
				return nil, nil, 0, errSyntax(), false
			}
			switch strings.ToUpper(string(rest[i+1])) {
			case "SUM":
				agg = aggSum
			case "MIN":
				agg = aggMin
			case "MAX":
				agg = aggMax
			default:
				return nil, nil, 0, errSyntax(), false
			}
			i++
		default:
			return nil, nil, 0, errSyntax(), false
		}
	}
	return keys, weights, agg, resp.Value{}, true
}

// zsetMembersOf reads key as a zset, or adapts a plain set (members with
// score 1), matching Redis's ZUNIONSTORE input flexibility.
func zsetMembersOf(e *Engine, key string) (map[string]float64, resp.Value, bool) {
	obj := e.lookup(key)
	if !obj.Exists() {
		return nil, resp.Value{}, true
	}
	out := make(map[string]float64)
	switch obj.Kind() {
	case store.KindZSet:
		for _, en := range obj.ZSet().Range(0, obj.ZSet().Len()-1) {
			out[en.Member] = en.Score
		}
	case store.KindSet:
		obj.Set().Walk(func(m string) { out[m] = 1 })
	default:
		return nil, wrongType(), false
	}
	return out, resp.Value{}, true
}

func zstoreGeneric(e *Engine, argv [][]byte, inter bool) resp.Value {
	dst := string(argv[1])
	keys, weights, agg, errReply, ok := parseZStoreArgs(e, argv)
	if !ok {
		return errReply
	}
	acc := make(map[string]float64)
	counts := make(map[string]int)
	for i, k := range keys {
		members, errReply, okM := zsetMembersOf(e, k)
		if !okM {
			return errReply
		}
		for m, s := range members {
			ws := s * weights[i]
			if cur, exists := acc[m]; exists {
				switch agg {
				case aggSum:
					acc[m] = cur + ws
				case aggMin:
					if ws < cur {
						acc[m] = ws
					}
				case aggMax:
					if ws > cur {
						acc[m] = ws
					}
				}
			} else {
				acc[m] = ws
			}
			counts[m]++
		}
	}
	if inter {
		for m, n := range counts {
			if n != len(keys) {
				delete(acc, m)
			}
		}
	}
	return materializeZSet(e, dst, acc)
}

// materializeZSet stores acc at dst and replicates the *result* (DEL +
// ZADD of every member) so replicas never re-run the aggregation.
func materializeZSet(e *Engine, dst string, acc map[string]float64) resp.Value {
	if len(acc) == 0 {
		if e.db.Delete(dst, e.Now()) {
			e.touch(dst)
			e.propagateStrings("DEL", dst)
		}
		return resp.Int64(0)
	}
	obj := store.New(store.KindZSet)
	z := obj.ZSet()
	for m, s := range acc {
		z.Add(m, s)
	}
	e.db.Set(dst, obj)
	e.touch(dst)
	eff := []string{"ZADD", dst}
	for _, en := range z.Range(0, z.Len()-1) {
		eff = append(eff, fmtScore(en.Score), en.Member)
	}
	e.propagateStrings("DEL", dst)
	e.propagateStrings(eff...)
	return resp.Int64(int64(len(acc)))
}

func cmdZUnionStore(e *Engine, argv [][]byte) resp.Value {
	return zstoreGeneric(e, argv, false)
}

func cmdZInterStore(e *Engine, argv [][]byte) resp.Value {
	return zstoreGeneric(e, argv, true)
}

// cmdZRangeStore implements ZRANGESTORE dst src min max [BYSCORE]
// [LIMIT offset count] [REV] — the rank and score range forms.
func cmdZRangeStore(e *Engine, argv [][]byte) resp.Value {
	dst, src := string(argv[1]), string(argv[2])
	byScore, rev := false, false
	offset, limit := 0, -1
	for i := 5; i < len(argv); i++ {
		switch strings.ToUpper(string(argv[i])) {
		case "BYSCORE":
			byScore = true
		case "REV":
			rev = true
		case "LIMIT":
			if i+2 >= len(argv) {
				return errSyntax()
			}
			o, ok1 := parseInt(argv[i+1])
			l, ok2 := parseInt(argv[i+2])
			if !ok1 || !ok2 {
				return errNotInt()
			}
			offset, limit = int(o), int(l)
			i += 2
		default:
			return errSyntax()
		}
	}
	if limit >= 0 && !byScore {
		return resp.Err("ERR syntax error, LIMIT is only supported in combination with either BYSCORE or BYLEX")
	}
	obj, errReply, ok := e.aggregateAt(src, store.KindZSet, false)
	if !ok {
		return errReply
	}
	var entries []store.Entry
	if obj.Exists() {
		if byScore {
			min, minEx, ok1 := parseScoreBound(argv[3])
			max, maxEx, ok2 := parseScoreBound(argv[4])
			if !ok1 || !ok2 {
				return resp.Err("ERR min or max is not a float")
			}
			if rev {
				min, max, minEx, maxEx = max, min, maxEx, minEx
			}
			entries = obj.ZSet().ScoreRange(min, max, minEx, maxEx, offset, limit)
		} else {
			start, ok1 := parseInt(argv[3])
			stop, ok2 := parseInt(argv[4])
			if !ok1 || !ok2 {
				return errNotInt()
			}
			if rev {
				entries = obj.ZSet().RevRange(int(start), int(stop))
			} else {
				entries = obj.ZSet().Range(int(start), int(stop))
			}
		}
	}
	acc := make(map[string]float64, len(entries))
	for _, en := range entries {
		acc[en.Member] = en.Score
	}
	return materializeZSet(e, dst, acc)
}

// cmdZDiff implements ZDIFF numkeys key... [WITHSCORES] (read-only).
func cmdZDiff(e *Engine, argv [][]byte) resp.Value {
	numKeys, okN := parseInt(argv[1])
	if !okN || numKeys <= 0 {
		return resp.Err("ERR at least 1 input key is needed")
	}
	if numKeys > int64(len(argv))-2 {
		return errSyntax()
	}
	withScores := false
	if int64(len(argv)) == numKeys+3 {
		if !strings.EqualFold(string(argv[len(argv)-1]), "WITHSCORES") {
			return errSyntax()
		}
		withScores = true
	} else if int64(len(argv)) > numKeys+3 {
		return errSyntax()
	}
	base, errReply, ok := zsetMembersOf(e, string(argv[2]))
	if !ok {
		return errReply
	}
	for _, k := range argv[3 : 2+numKeys] {
		members, errReply, okM := zsetMembersOf(e, string(k))
		if !okM {
			return errReply
		}
		for m := range members {
			delete(base, m)
		}
	}
	z := store.NewZSet()
	for m, s := range base {
		z.Add(m, s)
	}
	return zrangeReply(z.Range(0, z.Len()-1), withScores)
}
