package engine

import (
	"strconv"
	"strings"

	"memorydb/internal/resp"
	"memorydb/internal/store"
)

func init() {
	register(&Command{Name: "ZADD", Arity: 4, Flags: FlagWrite | FlagFast, Handler: cmdZAdd, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "ZINCRBY", Arity: -4, Flags: FlagWrite | FlagFast, Handler: cmdZIncrBy, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "ZREM", Arity: 3, Flags: FlagWrite | FlagFast, Handler: cmdZRem, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "ZSCORE", Arity: -3, Flags: FlagReadOnly | FlagFast, Handler: cmdZScore, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "ZCARD", Arity: -2, Flags: FlagReadOnly | FlagFast, Handler: cmdZCard, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "ZRANK", Arity: -3, Flags: FlagReadOnly | FlagFast, Handler: cmdZRank, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "ZREVRANK", Arity: -3, Flags: FlagReadOnly | FlagFast, Handler: cmdZRevRank, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "ZRANGE", Arity: 4, Flags: FlagReadOnly, Handler: cmdZRange, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "ZREVRANGE", Arity: 4, Flags: FlagReadOnly, Handler: cmdZRevRange, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "ZRANGEBYSCORE", Arity: 4, Flags: FlagReadOnly, Handler: cmdZRangeByScore, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "ZCOUNT", Arity: -4, Flags: FlagReadOnly | FlagFast, Handler: cmdZCount, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "ZPOPMIN", Arity: 2, Flags: FlagWrite | FlagFast, Handler: cmdZPopMin, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "ZPOPMAX", Arity: 2, Flags: FlagWrite | FlagFast, Handler: cmdZPopMax, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "ZREMRANGEBYRANK", Arity: -4, Flags: FlagWrite, Handler: cmdZRemRangeByRank, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "ZREMRANGEBYSCORE", Arity: -4, Flags: FlagWrite, Handler: cmdZRemRangeByScore, FirstKey: 1, LastKey: 1, KeyStep: 1})
}

// parseScoreBound parses a ZRANGEBYSCORE bound: a float, "(float", "-inf",
// or "+inf".
func parseScoreBound(b []byte) (val float64, exclusive bool, ok bool) {
	s := string(b)
	if strings.HasPrefix(s, "(") {
		exclusive = true
		s = s[1:]
	}
	switch strings.ToLower(s) {
	case "-inf":
		return store.NegInf, exclusive, true
	case "+inf", "inf":
		return store.PosInf, exclusive, true
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false, false
	}
	return f, exclusive, true
}

func cmdZAdd(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	var nx, xx, gt, lt, ch, incr bool
	i := 2
scanOpts:
	for ; i < len(argv); i++ {
		switch strings.ToUpper(string(argv[i])) {
		case "NX":
			nx = true
		case "XX":
			xx = true
		case "GT":
			gt = true
		case "LT":
			lt = true
		case "CH":
			ch = true
		case "INCR":
			incr = true
		default:
			break scanOpts
		}
	}
	if nx && xx || (gt && lt) || (nx && (gt || lt)) {
		return resp.Err("ERR GT, LT, and/or NX options at the same time are not compatible")
	}
	rest := argv[i:]
	if len(rest) == 0 || len(rest)%2 != 0 {
		return errSyntax()
	}
	if incr && len(rest) != 2 {
		return resp.Err("ERR INCR option supports a single increment-element pair")
	}
	// Validate every score before mutating anything: a bad pair must not
	// leave a half-applied ZADD behind (Redis parses all scores first,
	// and replication correctness depends on errors being effect-free).
	scores := make([]float64, 0, len(rest)/2)
	for j := 0; j < len(rest); j += 2 {
		score, okF := parseFloat(rest[j])
		if !okF {
			return errNotFloat()
		}
		scores = append(scores, score)
	}
	obj, errReply, ok := e.aggregateAt(key, store.KindZSet, true)
	if !ok {
		return errReply
	}
	added, changed := int64(0), int64(0)
	var incrResult resp.Value = resp.Nil
	for j := 0; j < len(rest); j += 2 {
		score := scores[j/2]
		member := string(rest[j+1])
		old, exists := obj.ZSet().Score(member)
		if (nx && exists) || (xx && !exists) {
			continue
		}
		if incr {
			score = old + score
		}
		if exists && ((gt && score <= old) || (lt && score >= old)) {
			continue
		}
		if obj.ZSet().Add(member, score) {
			added++
		} else if score != old {
			changed++
		}
		if incr {
			incrResult = resp.BulkStr(fmtScore(score))
		}
	}
	if added+changed > 0 || incr {
		e.touch(key)
		e.propagateVerbatim(argv)
	} else if obj.ZSet().Len() == 0 {
		e.db.Delete(key, e.Now())
	}
	if incr {
		return incrResult
	}
	if ch {
		return resp.Int64(added + changed)
	}
	return resp.Int64(added)
}

func cmdZIncrBy(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	delta, okF := parseFloat(argv[2])
	if !okF {
		return errNotFloat()
	}
	obj, errReply, ok := e.aggregateAt(key, store.KindZSet, true)
	if !ok {
		return errReply
	}
	s := obj.ZSet().IncrBy(string(argv[3]), delta)
	e.touch(key)
	// Replicate the resulting absolute score for determinism.
	e.propagateStrings("ZADD", key, fmtScore(s), string(argv[3]))
	return resp.BulkStr(fmtScore(s))
}

func cmdZRem(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindZSet, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	n := int64(0)
	for _, m := range argv[2:] {
		if obj.ZSet().Remove(string(m)) {
			n++
		}
	}
	if n > 0 {
		if obj.ZSet().Len() == 0 {
			e.db.Delete(key, e.Now())
		}
		e.touch(key)
		e.propagateVerbatim(argv)
	}
	return resp.Int64(n)
}

func cmdZScore(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindZSet, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Nil
	}
	s, exists := obj.ZSet().Score(string(argv[2]))
	if !exists {
		return resp.Nil
	}
	return resp.BulkStr(fmtScore(s))
}

func cmdZCard(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindZSet, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	return resp.Int64(int64(obj.ZSet().Len()))
}

func cmdZRank(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindZSet, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Nil
	}
	r, exists := obj.ZSet().Rank(string(argv[2]))
	if !exists {
		return resp.Nil
	}
	return resp.Int64(int64(r))
}

func cmdZRevRank(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindZSet, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Nil
	}
	r, exists := obj.ZSet().Rank(string(argv[2]))
	if !exists {
		return resp.Nil
	}
	return resp.Int64(int64(obj.ZSet().Len() - 1 - r))
}

func zrangeReply(entries []store.Entry, withScores bool) resp.Value {
	out := make([]resp.Value, 0, len(entries)*2)
	for _, en := range entries {
		out = append(out, resp.BulkStr(en.Member))
		if withScores {
			out = append(out, resp.BulkStr(fmtScore(en.Score)))
		}
	}
	return resp.ArrayV(out...)
}

func cmdZRange(e *Engine, argv [][]byte) resp.Value {
	return zrangeGeneric(e, argv, false)
}

func cmdZRevRange(e *Engine, argv [][]byte) resp.Value {
	return zrangeGeneric(e, argv, true)
}

func zrangeGeneric(e *Engine, argv [][]byte, rev bool) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindZSet, false)
	if !ok {
		return errReply
	}
	start, ok1 := parseInt(argv[2])
	stop, ok2 := parseInt(argv[3])
	if !ok1 || !ok2 {
		return errNotInt()
	}
	withScores := false
	if len(argv) == 5 {
		if !strings.EqualFold(string(argv[4]), "WITHSCORES") {
			return errSyntax()
		}
		withScores = true
	} else if len(argv) > 5 {
		return errSyntax()
	}
	if !obj.Exists() {
		return resp.ArrayV()
	}
	var entries []store.Entry
	if rev {
		entries = obj.ZSet().RevRange(int(start), int(stop))
	} else {
		entries = obj.ZSet().Range(int(start), int(stop))
	}
	return zrangeReply(entries, withScores)
}

func cmdZRangeByScore(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindZSet, false)
	if !ok {
		return errReply
	}
	min, minEx, ok1 := parseScoreBound(argv[2])
	max, maxEx, ok2 := parseScoreBound(argv[3])
	if !ok1 || !ok2 {
		return resp.Err("ERR min or max is not a float")
	}
	withScores := false
	offset, limit := 0, -1
	for i := 4; i < len(argv); i++ {
		switch strings.ToUpper(string(argv[i])) {
		case "WITHSCORES":
			withScores = true
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
	if !obj.Exists() {
		return resp.ArrayV()
	}
	return zrangeReply(obj.ZSet().ScoreRange(min, max, minEx, maxEx, offset, limit), withScores)
}

func cmdZCount(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindZSet, false)
	if !ok {
		return errReply
	}
	min, minEx, ok1 := parseScoreBound(argv[2])
	max, maxEx, ok2 := parseScoreBound(argv[3])
	if !ok1 || !ok2 {
		return resp.Err("ERR min or max is not a float")
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	return resp.Int64(int64(obj.ZSet().Count(min, max, minEx, maxEx)))
}

func zpopGeneric(e *Engine, argv [][]byte, min bool) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindZSet, false)
	if !ok {
		return errReply
	}
	count := 1
	if len(argv) == 3 {
		n, okN := parseInt(argv[2])
		if !okN || n < 0 {
			return errNotInt()
		}
		count = int(n)
	} else if len(argv) > 3 {
		return wrongArity(string(argv[0]))
	}
	if !obj.Exists() {
		return resp.ArrayV()
	}
	var popped []store.Entry
	if min {
		popped = obj.ZSet().PopMin(count)
	} else {
		popped = obj.ZSet().PopMax(count)
	}
	if len(popped) > 0 {
		if obj.ZSet().Len() == 0 {
			e.db.Delete(key, e.Now())
		}
		e.touch(key)
		eff := []string{"ZREM", key}
		for _, en := range popped {
			eff = append(eff, en.Member)
		}
		e.propagateStrings(eff...)
	}
	out := make([]resp.Value, 0, len(popped)*2)
	for _, en := range popped {
		out = append(out, resp.BulkStr(en.Member), resp.BulkStr(fmtScore(en.Score)))
	}
	return resp.ArrayV(out...)
}

func cmdZPopMin(e *Engine, argv [][]byte) resp.Value { return zpopGeneric(e, argv, true) }
func cmdZPopMax(e *Engine, argv [][]byte) resp.Value { return zpopGeneric(e, argv, false) }

func cmdZRemRangeByRank(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindZSet, false)
	if !ok {
		return errReply
	}
	start, ok1 := parseInt(argv[2])
	stop, ok2 := parseInt(argv[3])
	if !ok1 || !ok2 {
		return errNotInt()
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	victims := obj.ZSet().Range(int(start), int(stop))
	return zremVictims(e, key, obj, victims)
}

func cmdZRemRangeByScore(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindZSet, false)
	if !ok {
		return errReply
	}
	min, minEx, ok1 := parseScoreBound(argv[2])
	max, maxEx, ok2 := parseScoreBound(argv[3])
	if !ok1 || !ok2 {
		return resp.Err("ERR min or max is not a float")
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	victims := obj.ZSet().ScoreRange(min, max, minEx, maxEx, 0, -1)
	return zremVictims(e, key, obj, victims)
}

func zremVictims(e *Engine, key string, obj store.Object, victims []store.Entry) resp.Value {
	if len(victims) == 0 {
		return resp.Int64(0)
	}
	eff := []string{"ZREM", key}
	for _, v := range victims {
		obj.ZSet().Remove(v.Member)
		eff = append(eff, v.Member)
	}
	if obj.ZSet().Len() == 0 {
		e.db.Delete(key, e.Now())
	}
	e.touch(key)
	e.propagateStrings(eff...)
	return resp.Int64(int64(len(victims)))
}
