package engine

import (
	"sort"

	"memorydb/internal/resp"
	"memorydb/internal/store"
)

func init() {
	register(&Command{Name: "SADD", Arity: 3, Flags: FlagWrite | FlagFast, Handler: cmdSAdd, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "SREM", Arity: 3, Flags: FlagWrite | FlagFast, Handler: cmdSRem, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "SCARD", Arity: -2, Flags: FlagReadOnly | FlagFast, Handler: cmdSCard, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "SISMEMBER", Arity: -3, Flags: FlagReadOnly | FlagFast, Handler: cmdSIsMember, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "SMEMBERS", Arity: -2, Flags: FlagReadOnly, Handler: cmdSMembers, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "SPOP", Arity: 2, Flags: FlagWrite | FlagFast, Handler: cmdSPop, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "SRANDMEMBER", Arity: 2, Flags: FlagReadOnly, Handler: cmdSRandMember, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "SMOVE", Arity: -4, Flags: FlagWrite | FlagFast, Handler: cmdSMove, FirstKey: 1, LastKey: 2, KeyStep: 1})
	register(&Command{Name: "SINTER", Arity: 2, Flags: FlagReadOnly, Handler: cmdSInter, FirstKey: 1, LastKey: -1, KeyStep: 1})
	register(&Command{Name: "SUNION", Arity: 2, Flags: FlagReadOnly, Handler: cmdSUnion, FirstKey: 1, LastKey: -1, KeyStep: 1})
	register(&Command{Name: "SDIFF", Arity: 2, Flags: FlagReadOnly, Handler: cmdSDiff, FirstKey: 1, LastKey: -1, KeyStep: 1})
	register(&Command{Name: "SINTERSTORE", Arity: 3, Flags: FlagWrite, Handler: cmdSInterStore, FirstKey: 1, LastKey: -1, KeyStep: 1})
	register(&Command{Name: "SUNIONSTORE", Arity: 3, Flags: FlagWrite, Handler: cmdSUnionStore, FirstKey: 1, LastKey: -1, KeyStep: 1})
	register(&Command{Name: "SDIFFSTORE", Arity: 3, Flags: FlagWrite, Handler: cmdSDiffStore, FirstKey: 1, LastKey: -1, KeyStep: 1})
}

func cmdSAdd(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindSet, true)
	if !ok {
		return errReply
	}
	n := int64(0)
	for _, m := range argv[2:] {
		if obj.Set().Add(string(m)) {
			n++
		}
	}
	if n > 0 {
		e.touch(key)
		e.propagateVerbatim(argv)
	}
	return resp.Int64(n)
}

func cmdSRem(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindSet, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	n := int64(0)
	for _, m := range argv[2:] {
		if obj.Set().Remove(string(m)) {
			n++
		}
	}
	if n > 0 {
		if obj.Set().Len() == 0 {
			e.db.Delete(key, e.Now())
		}
		e.touch(key)
		e.propagateVerbatim(argv)
	}
	return resp.Int64(n)
}

func cmdSCard(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindSet, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	return resp.Int64(int64(obj.Set().Len()))
}

func cmdSIsMember(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindSet, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	if obj.Set().Has(string(argv[2])) {
		return resp.Int64(1)
	}
	return resp.Int64(0)
}

func cmdSMembers(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindSet, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.ArrayV()
	}
	return resp.BulkArray(obj.Set().Members()...)
}

// cmdSPop is the canonical non-deterministic command (§2.1): the primary
// picks random members and replicates explicit SREMs so replicas converge
// deterministically.
func cmdSPop(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindSet, false)
	if !ok {
		return errReply
	}
	count := 1
	withCount := len(argv) == 3
	if withCount {
		n, okN := parseInt(argv[2])
		if !okN || n < 0 {
			return errNotInt()
		}
		count = int(n)
	} else if len(argv) > 3 {
		return wrongArity("SPOP")
	}
	if !obj.Exists() {
		if withCount {
			return resp.ArrayV()
		}
		return resp.Nil
	}
	members := obj.Set().Members()
	if count > len(members) {
		count = len(members)
	}
	// Random selection without replacement.
	picked := make([]string, 0, count)
	for i := 0; i < count; i++ {
		j := e.rand().Intn(len(members))
		picked = append(picked, members[j])
		members = append(members[:j], members[j+1:]...)
	}
	eff := make([]string, 0, 2+len(picked))
	eff = append(eff, "SREM", key)
	for _, m := range picked {
		obj.Set().Remove(m)
		eff = append(eff, m)
	}
	if len(picked) > 0 {
		if obj.Set().Len() == 0 {
			e.db.Delete(key, e.Now())
		}
		e.touch(key)
		e.propagateStrings(eff...)
	}
	if !withCount {
		if len(picked) == 0 {
			return resp.Nil
		}
		return resp.BulkStr(picked[0])
	}
	return resp.BulkArray(picked...)
}

func cmdSRandMember(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindSet, false)
	if !ok {
		return errReply
	}
	withCount := len(argv) == 3
	if !obj.Exists() {
		if withCount {
			return resp.ArrayV()
		}
		return resp.Nil
	}
	members := obj.Set().Members()
	if !withCount {
		return resp.BulkStr(members[e.rand().Intn(len(members))])
	}
	n, okN := parseInt(argv[2])
	if !okN {
		return errNotInt()
	}
	var out []string
	if n >= 0 {
		// Distinct members, at most the cardinality.
		if int(n) > len(members) {
			n = int64(len(members))
		}
		idx := e.rand().Perm(len(members))[:n]
		for _, i := range idx {
			out = append(out, members[i])
		}
	} else {
		// With replacement, exactly -n members.
		for i := int64(0); i < -n; i++ {
			out = append(out, members[e.rand().Intn(len(members))])
		}
	}
	return resp.BulkArray(out...)
}

func cmdSMove(e *Engine, argv [][]byte) resp.Value {
	src, dst := string(argv[1]), string(argv[2])
	member := string(argv[3])
	srcObj, errReply, ok := e.aggregateAt(src, store.KindSet, false)
	if !ok {
		return errReply
	}
	if !srcObj.Exists() {
		return resp.Int64(0)
	}
	if !srcObj.Set().Has(member) {
		return resp.Int64(0)
	}
	dstObj, errReply, ok := e.aggregateAt(dst, store.KindSet, true)
	if !ok {
		return errReply
	}
	srcObj.Set().Remove(member)
	dstObj.Set().Add(member)
	if srcObj.Set().Len() == 0 {
		e.db.Delete(src, e.Now())
	}
	e.touch(src)
	e.touch(dst)
	e.propagateVerbatim(argv)
	return resp.Int64(1)
}

func setOp(e *Engine, keys [][]byte, op byte) (map[string]struct{}, resp.Value, bool) {
	acc := make(map[string]struct{})
	for i, k := range keys {
		obj, errReply, ok := e.aggregateAt(string(k), store.KindSet, false)
		if !ok {
			return nil, errReply, false
		}
		cur := obj.Set()
		switch {
		case op == 'i' && i > 0:
			for m := range acc {
				if cur == nil || !cur.Has(m) {
					delete(acc, m)
				}
			}
		case cur == nil:
		case op == 'u' || i == 0:
			cur.Walk(func(m string) { acc[m] = struct{}{} })
		case op == 'd':
			cur.Walk(func(m string) { delete(acc, m) })
		}
	}
	return acc, resp.Value{}, true
}

func setOpReply(acc map[string]struct{}) resp.Value {
	out := make([]string, 0, len(acc))
	for m := range acc {
		out = append(out, m)
	}
	sort.Strings(out)
	return resp.BulkArray(out...)
}

func cmdSInter(e *Engine, argv [][]byte) resp.Value {
	acc, errReply, ok := setOp(e, argv[1:], 'i')
	if !ok {
		return errReply
	}
	return setOpReply(acc)
}

func cmdSUnion(e *Engine, argv [][]byte) resp.Value {
	acc, errReply, ok := setOp(e, argv[1:], 'u')
	if !ok {
		return errReply
	}
	return setOpReply(acc)
}

func cmdSDiff(e *Engine, argv [][]byte) resp.Value {
	acc, errReply, ok := setOp(e, argv[1:], 'd')
	if !ok {
		return errReply
	}
	return setOpReply(acc)
}

func setOpStore(e *Engine, argv [][]byte, op byte) resp.Value {
	dst := string(argv[1])
	acc, errReply, ok := setOp(e, argv[2:], op)
	if !ok {
		return errReply
	}
	if len(acc) == 0 {
		existed := e.db.Delete(dst, e.Now())
		if existed {
			e.touch(dst)
			e.propagateStrings("DEL", dst)
		}
		return resp.Int64(0)
	}
	obj := store.New(store.KindSet)
	for m := range acc {
		obj.Set().Add(m)
	}
	e.db.Set(dst, obj)
	e.touch(dst)
	// Deterministic store result: replicate DEL + SADD of the exact
	// resulting members (in sorted order) rather than re-running the op.
	members := obj.Set().Members()
	eff := append([]string{"SADD", dst}, members...)
	e.propagateStrings("DEL", dst)
	e.propagateStrings(eff...)
	return resp.Int64(int64(len(acc)))
}

func cmdSInterStore(e *Engine, argv [][]byte) resp.Value { return setOpStore(e, argv, 'i') }
func cmdSUnionStore(e *Engine, argv [][]byte) resp.Value { return setOpStore(e, argv, 'u') }
func cmdSDiffStore(e *Engine, argv [][]byte) resp.Value  { return setOpStore(e, argv, 'd') }
