package engine

import (
	"maps"
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

func setAt(e *Engine, key string, create bool) (store.Object, resp.Value, bool) {
	obj, errReply, ok := e.lookupKind(key, store.KindSet)
	if !ok {
		return store.Object{}, errReply, false
	}
	if !obj.Exists() && create {
		obj = store.New(store.KindSet)
		e.db.Set(key, obj)
	}
	return obj, resp.Value{}, true
}

func cmdSAdd(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := setAt(e, key, true)
	if !ok {
		return errReply
	}
	n := int64(0)
	for _, m := range argv[2:] {
		member := string(m)
		if _, exists := obj.Set()[member]; !exists {
			obj.Set()[member] = struct{}{}
			e.db.AdjustUsed(int64(len(member)))
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
	obj, errReply, ok := setAt(e, key, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	n := int64(0)
	for _, m := range argv[2:] {
		member := string(m)
		if _, exists := obj.Set()[member]; exists {
			delete(obj.Set(), member)
			e.db.AdjustUsed(-int64(len(member)))
			n++
		}
	}
	if n > 0 {
		if len(obj.Set()) == 0 {
			e.db.Delete(key, e.Now())
		}
		e.touch(key)
		e.propagateVerbatim(argv)
	}
	return resp.Int64(n)
}

func cmdSCard(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := setAt(e, string(argv[1]), false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	return resp.Int64(int64(len(obj.Set())))
}

func cmdSIsMember(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := setAt(e, string(argv[1]), false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	if _, exists := obj.Set()[string(argv[2])]; exists {
		return resp.Int64(1)
	}
	return resp.Int64(0)
}

func sortedMembers(obj store.Object) []string {
	out := make([]string, 0, len(obj.Set()))
	for m := range obj.Set() {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

func cmdSMembers(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := setAt(e, string(argv[1]), false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.ArrayV()
	}
	return resp.BulkArray(sortedMembers(obj)...)
}

// cmdSPop is the canonical non-deterministic command (§2.1): the primary
// picks random members and replicates explicit SREMs so replicas converge
// deterministically.
func cmdSPop(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := setAt(e, key, false)
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
	members := sortedMembers(obj)
	if count > len(members) {
		count = len(members)
	}
	// Random selection without replacement.
	picked := make([]string, 0, count)
	for i := 0; i < count; i++ {
		j := e.rng.Intn(len(members))
		picked = append(picked, members[j])
		members = append(members[:j], members[j+1:]...)
	}
	eff := make([]string, 0, 2+len(picked))
	eff = append(eff, "SREM", key)
	for _, m := range picked {
		delete(obj.Set(), m)
		e.db.AdjustUsed(-int64(len(m)))
		eff = append(eff, m)
	}
	if len(picked) > 0 {
		if len(obj.Set()) == 0 {
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
	obj, errReply, ok := setAt(e, string(argv[1]), false)
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
	members := sortedMembers(obj)
	if !withCount {
		return resp.BulkStr(members[e.rng.Intn(len(members))])
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
		idx := e.rng.Perm(len(members))[:n]
		for _, i := range idx {
			out = append(out, members[i])
		}
	} else {
		// With replacement, exactly -n members.
		for i := int64(0); i < -n; i++ {
			out = append(out, members[e.rng.Intn(len(members))])
		}
	}
	return resp.BulkArray(out...)
}

func cmdSMove(e *Engine, argv [][]byte) resp.Value {
	src, dst := string(argv[1]), string(argv[2])
	member := string(argv[3])
	srcObj, errReply, ok := setAt(e, src, false)
	if !ok {
		return errReply
	}
	if !srcObj.Exists() {
		return resp.Int64(0)
	}
	if _, exists := srcObj.Set()[member]; !exists {
		return resp.Int64(0)
	}
	dstObj, errReply, ok := setAt(e, dst, true)
	if !ok {
		return errReply
	}
	delete(srcObj.Set(), member)
	dstObj.Set()[member] = struct{}{}
	if len(srcObj.Set()) == 0 {
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
		obj, errReply, ok := setAt(e, string(k), false)
		if !ok {
			return nil, errReply, false
		}
		cur := map[string]struct{}{}
		if obj.Exists() {
			cur = obj.Set()
		}
		switch op {
		case 'u':
			for m := range cur {
				acc[m] = struct{}{}
			}
		case 'i':
			if i == 0 {
				for m := range cur {
					acc[m] = struct{}{}
				}
			} else {
				for m := range acc {
					if _, ok := cur[m]; !ok {
						delete(acc, m)
					}
				}
			}
		case 'd':
			if i == 0 {
				for m := range cur {
					acc[m] = struct{}{}
				}
			} else {
				for m := range cur {
					delete(acc, m)
				}
			}
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
	maps.Copy(obj.Set(), acc)
	e.db.Set(dst, obj)
	e.touch(dst)
	// Deterministic store result: replicate DEL + SADD of the exact
	// resulting members (in sorted order) rather than re-running the op.
	members := sortedMembers(obj)
	eff := append([]string{"SADD", dst}, members...)
	e.propagateStrings("DEL", dst)
	e.propagateStrings(eff...)
	return resp.Int64(int64(len(acc)))
}

func cmdSInterStore(e *Engine, argv [][]byte) resp.Value { return setOpStore(e, argv, 'i') }
func cmdSUnionStore(e *Engine, argv [][]byte) resp.Value { return setOpStore(e, argv, 'u') }
func cmdSDiffStore(e *Engine, argv [][]byte) resp.Value  { return setOpStore(e, argv, 'd') }
