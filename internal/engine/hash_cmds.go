package engine

import (
	"bytes"
	"strconv"

	"memorydb/internal/resp"
	"memorydb/internal/store"
)

func init() {
	register(&Command{Name: "HSET", Arity: 4, Flags: FlagWrite | FlagFast, Handler: cmdHSet, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "HMSET", Arity: 4, Flags: FlagWrite | FlagFast, Handler: cmdHMSet, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "HSETNX", Arity: -4, Flags: FlagWrite | FlagFast, Handler: cmdHSetNX, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "HGET", Arity: -3, Flags: FlagReadOnly | FlagFast, Handler: cmdHGet, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "HMGET", Arity: 3, Flags: FlagReadOnly | FlagFast, Handler: cmdHMGet, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "HDEL", Arity: 3, Flags: FlagWrite | FlagFast, Handler: cmdHDel, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "HGETALL", Arity: -2, Flags: FlagReadOnly, Handler: cmdHGetAll, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "HEXISTS", Arity: -3, Flags: FlagReadOnly | FlagFast, Handler: cmdHExists, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "HLEN", Arity: -2, Flags: FlagReadOnly | FlagFast, Handler: cmdHLen, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "HKEYS", Arity: -2, Flags: FlagReadOnly, Handler: cmdHKeys, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "HVALS", Arity: -2, Flags: FlagReadOnly, Handler: cmdHVals, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "HSTRLEN", Arity: -3, Flags: FlagReadOnly | FlagFast, Handler: cmdHStrlen, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "HINCRBY", Arity: -4, Flags: FlagWrite | FlagFast, Handler: cmdHIncrBy, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "HINCRBYFLOAT", Arity: -4, Flags: FlagWrite | FlagFast, Handler: cmdHIncrByFloat, FirstKey: 1, LastKey: 1, KeyStep: 1})
}

func cmdHSet(e *Engine, argv [][]byte) resp.Value {
	if len(argv)%2 != 0 {
		return wrongArity("HSET")
	}
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindHash, true)
	if !ok {
		return errReply
	}
	added := int64(0)
	for i := 2; i < len(argv); i += 2 {
		if obj.Hash().Put(string(argv[i]), bytes.Clone(argv[i+1])) {
			added++
		}
	}
	e.touch(key)
	e.propagateVerbatim(argv)
	return resp.Int64(added)
}

func cmdHMSet(e *Engine, argv [][]byte) resp.Value {
	if v := cmdHSet(e, argv); v.IsError() {
		return v
	}
	return resp.OK
}

func cmdHSetNX(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindHash, true)
	if !ok {
		return errReply
	}
	h := obj.Hash()
	f := string(argv[2])
	if _, exists := h.Get(f); exists {
		return resp.Int64(0)
	}
	h.Put(f, bytes.Clone(argv[3]))
	e.touch(key)
	e.propagateVerbatim(argv)
	return resp.Int64(1)
}

func cmdHGet(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindHash, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Nil
	}
	v, exists := obj.Hash().Get(string(argv[2]))
	if !exists {
		return resp.Nil
	}
	return resp.Bulk(v)
}

func cmdHMGet(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindHash, false)
	if !ok {
		return errReply
	}
	out := make([]resp.Value, 0, len(argv)-2)
	for _, f := range argv[2:] {
		if !obj.Exists() {
			out = append(out, resp.Nil)
			continue
		}
		if v, exists := obj.Hash().Get(string(f)); exists {
			out = append(out, resp.Bulk(v))
		} else {
			out = append(out, resp.Nil)
		}
	}
	return resp.ArrayV(out...)
}

func cmdHDel(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindHash, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	n := int64(0)
	for _, f := range argv[2:] {
		if obj.Hash().Delete(string(f)) {
			n++
		}
	}
	if n > 0 {
		if obj.Hash().Len() == 0 {
			e.db.Delete(key, e.Now())
		}
		e.touch(key)
		e.propagateVerbatim(argv)
	}
	return resp.Int64(n)
}

func cmdHGetAll(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindHash, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.ArrayV()
	}
	fields := obj.Hash().Fields() // deterministic reply order (diverges from Redis, which is unordered)
	out := make([]resp.Value, 0, len(fields)*2)
	for _, f := range fields {
		v, _ := obj.Hash().Get(f)
		out = append(out, resp.BulkStr(f), resp.Bulk(v))
	}
	return resp.ArrayV(out...)
}

func cmdHExists(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindHash, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	if _, exists := obj.Hash().Get(string(argv[2])); exists {
		return resp.Int64(1)
	}
	return resp.Int64(0)
}

func cmdHLen(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindHash, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	return resp.Int64(int64(obj.Hash().Len()))
}

func cmdHKeys(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindHash, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.ArrayV()
	}
	return resp.BulkArray(obj.Hash().Fields()...)
}

func cmdHVals(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindHash, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.ArrayV()
	}
	fields := obj.Hash().Fields()
	out := make([]resp.Value, 0, len(fields))
	for _, f := range fields {
		v, _ := obj.Hash().Get(f)
		out = append(out, resp.Bulk(v))
	}
	return resp.ArrayV(out...)
}

func cmdHStrlen(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindHash, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	v, _ := obj.Hash().Get(string(argv[2]))
	return resp.Int64(int64(len(v)))
}

func cmdHIncrBy(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	delta, ok := parseInt(argv[3])
	if !ok {
		return errNotInt()
	}
	obj, errReply, ok := e.aggregateAt(key, store.KindHash, true)
	if !ok {
		return errReply
	}
	f := string(argv[2])
	var cur int64
	if v, exists := obj.Hash().Get(f); exists {
		n, ok := parseInt(v)
		if !ok {
			return resp.Err("ERR hash value is not an integer")
		}
		cur = n
	}
	if (delta > 0 && cur > (1<<63-1)-delta) || (delta < 0 && cur < -(1<<63-1)-delta-1) {
		return resp.Err("ERR increment or decrement would overflow")
	}
	cur += delta
	s := strconv.AppendInt(nil, cur, 10)
	obj.Hash().Put(f, s)
	e.touch(key)
	e.propagateStrings("HSET", key, f, string(s))
	return resp.Int64(cur)
}

func cmdHIncrByFloat(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	delta, ok := parseFloat(argv[3])
	if !ok {
		return errNotFloat()
	}
	obj, errReply, ok := e.aggregateAt(key, store.KindHash, true)
	if !ok {
		return errReply
	}
	f := string(argv[2])
	var cur float64
	if v, exists := obj.Hash().Get(f); exists {
		x, ok := parseFloat(v)
		if !ok {
			return resp.Err("ERR hash value is not a float")
		}
		cur = x
	}
	cur += delta
	s := strconv.FormatFloat(cur, 'f', -1, 64)
	obj.Hash().Put(f, []byte(s))
	e.touch(key)
	e.propagateStrings("HSET", key, f, s)
	return resp.BulkStr(s)
}
