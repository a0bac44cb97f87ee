package engine

import (
	"bytes"
	"strconv"

	"memorydb/internal/resp"
	"memorydb/internal/store"
)

func init() {
	register(&Command{Name: "LPUSH", Arity: 3, Flags: FlagWrite | FlagFast, Handler: cmdLPush, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "RPUSH", Arity: 3, Flags: FlagWrite | FlagFast, Handler: cmdRPush, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "LPUSHX", Arity: 3, Flags: FlagWrite | FlagFast, Handler: cmdLPushX, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "RPUSHX", Arity: 3, Flags: FlagWrite | FlagFast, Handler: cmdRPushX, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "LPOP", Arity: 2, Flags: FlagWrite | FlagFast, Handler: cmdLPop, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "RPOP", Arity: 2, Flags: FlagWrite | FlagFast, Handler: cmdRPop, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "RPOPLPUSH", Arity: -3, Flags: FlagWrite, Handler: cmdRPopLPush, FirstKey: 1, LastKey: 2, KeyStep: 1})
	register(&Command{Name: "LLEN", Arity: -2, Flags: FlagReadOnly | FlagFast, Handler: cmdLLen, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "LRANGE", Arity: -4, Flags: FlagReadOnly, Handler: cmdLRange, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "LINDEX", Arity: -3, Flags: FlagReadOnly, Handler: cmdLIndex, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "LSET", Arity: -4, Flags: FlagWrite, Handler: cmdLSet, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "LREM", Arity: -4, Flags: FlagWrite, Handler: cmdLRem, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "LTRIM", Arity: -4, Flags: FlagWrite, Handler: cmdLTrim, FirstKey: 1, LastKey: 1, KeyStep: 1})
}

func pushGeneric(e *Engine, argv [][]byte, front, mustExist bool) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindList, !mustExist)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	for _, v := range argv[2:] {
		v = bytes.Clone(v)
		if front {
			obj.List().PushFront(v)
		} else {
			obj.List().PushBack(v)
		}
	}
	e.touch(key)
	e.propagateVerbatim(argv)
	return resp.Int64(int64(obj.List().Len()))
}

func cmdLPush(e *Engine, argv [][]byte) resp.Value  { return pushGeneric(e, argv, true, false) }
func cmdRPush(e *Engine, argv [][]byte) resp.Value  { return pushGeneric(e, argv, false, false) }
func cmdLPushX(e *Engine, argv [][]byte) resp.Value { return pushGeneric(e, argv, true, true) }
func cmdRPushX(e *Engine, argv [][]byte) resp.Value { return pushGeneric(e, argv, false, true) }

func popGeneric(e *Engine, argv [][]byte, front bool) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindList, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Nil
	}
	count := 1
	withCount := len(argv) == 3
	if withCount {
		n, ok := parseInt(argv[2])
		if !ok || n < 0 {
			return errNotInt()
		}
		count = int(n)
	} else if len(argv) > 3 {
		return wrongArity(string(argv[0]))
	}
	var popped [][]byte
	for i := 0; i < count; i++ {
		var v []byte
		var got bool
		if front {
			v, got = obj.List().PopFront()
		} else {
			v, got = obj.List().PopBack()
		}
		if !got {
			break
		}
		popped = append(popped, v)
	}
	if len(popped) > 0 {
		if obj.List().Len() == 0 {
			e.db.Delete(key, e.Now())
		}
		e.touch(key)
		// Deterministic: replicate the pop with the exact count performed.
		name := "RPOP"
		if front {
			name = "LPOP"
		}
		e.propagateStrings(name, key, strconv.Itoa(len(popped)))
	}
	if !withCount {
		if len(popped) == 0 {
			return resp.Nil
		}
		return resp.Bulk(popped[0])
	}
	if len(popped) == 0 {
		return resp.NullArray()
	}
	out := make([]resp.Value, len(popped))
	for i, v := range popped {
		out[i] = resp.Bulk(v)
	}
	return resp.ArrayV(out...)
}

func cmdLPop(e *Engine, argv [][]byte) resp.Value { return popGeneric(e, argv, true) }
func cmdRPop(e *Engine, argv [][]byte) resp.Value { return popGeneric(e, argv, false) }

func cmdRPopLPush(e *Engine, argv [][]byte) resp.Value {
	src, dst := string(argv[1]), string(argv[2])
	srcObj, errReply, ok := e.aggregateAt(src, store.KindList, false)
	if !ok {
		return errReply
	}
	if !srcObj.Exists() {
		return resp.Nil
	}
	dstObj, errReply, ok := e.aggregateAt(dst, store.KindList, true)
	if !ok {
		return errReply
	}
	v, got := srcObj.List().PopBack()
	if !got {
		return resp.Nil
	}
	if src == dst {
		dstObj = srcObj
	}
	dstObj.List().PushFront(v)
	if srcObj.List().Len() == 0 && src != dst {
		e.db.Delete(src, e.Now())
	}
	e.touch(src)
	e.touch(dst)
	e.propagateVerbatim(argv)
	return resp.Bulk(v)
}

func cmdLLen(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindList, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	return resp.Int64(int64(obj.List().Len()))
}

func cmdLRange(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindList, false)
	if !ok {
		return errReply
	}
	start, ok1 := parseInt(argv[2])
	stop, ok2 := parseInt(argv[3])
	if !ok1 || !ok2 {
		return errNotInt()
	}
	if !obj.Exists() {
		return resp.ArrayV()
	}
	vals := obj.List().Range(int(start), int(stop))
	out := make([]resp.Value, len(vals))
	for i, v := range vals {
		out[i] = resp.Bulk(v)
	}
	return resp.ArrayV(out...)
}

func cmdLIndex(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindList, false)
	if !ok {
		return errReply
	}
	idx, okN := parseInt(argv[2])
	if !okN {
		return errNotInt()
	}
	if !obj.Exists() {
		return resp.Nil
	}
	v, got := obj.List().Index(int(idx))
	if !got {
		return resp.Nil
	}
	return resp.Bulk(v)
}

func cmdLSet(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindList, false)
	if !ok {
		return errReply
	}
	idx, okN := parseInt(argv[2])
	if !okN {
		return errNotInt()
	}
	if !obj.Exists() {
		return resp.Err("ERR no such key")
	}
	if !obj.List().SetIndex(int(idx), bytes.Clone(argv[3])) {
		return resp.Err("ERR index out of range")
	}
	e.touch(key)
	e.propagateVerbatim(argv)
	return resp.OK
}

func cmdLRem(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindList, false)
	if !ok {
		return errReply
	}
	count, okN := parseInt(argv[2])
	if !okN {
		return errNotInt()
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	n := obj.List().Remove(int(count), argv[3])
	if n > 0 {
		if obj.List().Len() == 0 {
			e.db.Delete(key, e.Now())
		}
		e.touch(key)
		e.propagateVerbatim(argv)
	}
	return resp.Int64(int64(n))
}

func cmdLTrim(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindList, false)
	if !ok {
		return errReply
	}
	start, ok1 := parseInt(argv[2])
	stop, ok2 := parseInt(argv[3])
	if !ok1 || !ok2 {
		return errNotInt()
	}
	if !obj.Exists() {
		return resp.OK
	}
	if obj.List().Trim(int(start), int(stop)) > 0 {
		if obj.List().Len() == 0 {
			e.db.Delete(key, e.Now())
		}
		e.touch(key)
		e.propagateVerbatim(argv)
	}
	return resp.OK
}
