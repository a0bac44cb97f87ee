package engine

import (
	"memorydb/internal/resp"
	"memorydb/internal/store"
)

func init() {
	register(&Command{Name: "PFADD", Arity: 2, Flags: FlagWrite | FlagFast, Handler: cmdPFAdd, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "PFCOUNT", Arity: 2, Flags: FlagReadOnly, Handler: cmdPFCount, FirstKey: 1, LastKey: -1, KeyStep: 1})
	register(&Command{Name: "PFMERGE", Arity: 2, Flags: FlagWrite, Handler: cmdPFMerge, FirstKey: 1, LastKey: -1, KeyStep: 1})
}

func hllAt(e *Engine, key string, create bool) (*store.Object, resp.Value, bool) {
	obj, errReply, ok := e.lookupKind(key, store.KindString)
	if !ok {
		return nil, errReply, false
	}
	if obj != nil && !store.IsHLL(obj.Str) {
		return nil, resp.Err("WRONGTYPE Key is not a valid HyperLogLog string value."), false
	}
	if obj == nil && create {
		obj = strObject(store.NewHLL())
		e.db.Set(key, obj)
	}
	return obj, resp.Value{}, true
}

func cmdPFAdd(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := hllAt(e, key, true)
	if !ok {
		return errReply
	}
	changed := false
	for _, el := range argv[2:] {
		c, err := store.HLLAdd(obj.Str, el)
		if err != nil {
			return resp.Err(err.Error())
		}
		changed = changed || c
	}
	if changed || len(argv) == 2 {
		e.touch(key)
		e.propagateVerbatim(argv)
	}
	if changed {
		return resp.Int64(1)
	}
	return resp.Int64(0)
}

func cmdPFCount(e *Engine, argv [][]byte) resp.Value {
	if len(argv) == 2 {
		obj, errReply, ok := hllAt(e, string(argv[1]), false)
		if !ok {
			return errReply
		}
		if obj == nil {
			return resp.Int64(0)
		}
		n, err := store.HLLCount(obj.Str)
		if err != nil {
			return resp.Err(err.Error())
		}
		return resp.Int64(n)
	}
	// Multi-key count: merge into a scratch HLL.
	merged := store.NewHLL()
	for _, k := range argv[1:] {
		obj, errReply, ok := hllAt(e, string(k), false)
		if !ok {
			return errReply
		}
		if obj == nil {
			continue
		}
		if err := store.HLLMerge(merged, obj.Str); err != nil {
			return resp.Err(err.Error())
		}
	}
	n, err := store.HLLCount(merged)
	if err != nil {
		return resp.Err(err.Error())
	}
	return resp.Int64(n)
}

func cmdPFMerge(e *Engine, argv [][]byte) resp.Value {
	// Validate every source before mutating: creating the destination
	// and then failing on a WRONGTYPE source would leave a half-applied,
	// unreplicated mutation behind.
	srcs := make([][]byte, 0, len(argv)-2)
	for _, k := range argv[2:] {
		src, errReply, ok := hllAt(e, string(k), false)
		if !ok {
			return errReply
		}
		if src != nil {
			srcs = append(srcs, src.Str)
		}
	}
	dst := string(argv[1])
	obj, errReply, ok := hllAt(e, dst, true)
	if !ok {
		return errReply
	}
	for _, s := range srcs {
		if err := store.HLLMerge(obj.Str, s); err != nil {
			return resp.Err(err.Error())
		}
	}
	e.touch(dst)
	e.propagateVerbatim(argv)
	return resp.OK
}
