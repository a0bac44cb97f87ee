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

// hllAt returns the HyperLogLog at key, nil when key is absent. It is the
// stored value, which replies may share: a command that changes it works
// on a copy.
func hllAt(e *Engine, key string) ([]byte, resp.Value, bool) {
	obj, errReply, ok := e.lookupKind(key, store.KindString)
	if !ok {
		return nil, errReply, false
	}
	if obj.Exists() && !store.IsHLL(obj.Str()) {
		return nil, resp.Err("WRONGTYPE Key is not a valid HyperLogLog string value."), false
	}
	return obj.Str(), resp.Value{}, true
}

// hllCopy returns a writable copy of the HyperLogLog cur, an empty one
// when cur is nil.
func hllCopy(cur []byte) []byte {
	hll := store.NewHLL()
	copy(hll, cur)
	return hll
}

func cmdPFAdd(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	cur, errReply, ok := hllAt(e, key)
	if !ok {
		return errReply
	}
	hll := hllCopy(cur)
	changed := false
	for _, el := range argv[2:] {
		c, err := store.HLLAdd(hll, el)
		if err != nil {
			return resp.Err(err.Error())
		}
		changed = changed || c
	}
	if changed || cur == nil {
		e.db.SetStringKeepTTL(key, hll)
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
		hll, errReply, ok := hllAt(e, string(argv[1]))
		if !ok {
			return errReply
		}
		if hll == nil {
			return resp.Int64(0)
		}
		n, err := store.HLLCount(hll)
		if err != nil {
			return resp.Err(err.Error())
		}
		return resp.Int64(n)
	}
	// Multi-key count: merge into a scratch HLL.
	merged := store.NewHLL()
	for _, k := range argv[1:] {
		hll, errReply, ok := hllAt(e, string(k))
		if !ok {
			return errReply
		}
		if hll == nil {
			continue
		}
		if err := store.HLLMerge(merged, hll); err != nil {
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
		src, errReply, ok := hllAt(e, string(k))
		if !ok {
			return errReply
		}
		if src != nil {
			srcs = append(srcs, src)
		}
	}
	dst := string(argv[1])
	cur, errReply, ok := hllAt(e, dst)
	if !ok {
		return errReply
	}
	merged := hllCopy(cur)
	for _, s := range srcs {
		if err := store.HLLMerge(merged, s); err != nil {
			return resp.Err(err.Error())
		}
	}
	e.touch(e.db.SetStringKeepTTL(dst, merged))
	e.propagateVerbatim(argv)
	return resp.OK
}
