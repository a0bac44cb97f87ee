package engine

import (
	"strconv"
	"strings"

	"memorydb/internal/resp"
	"memorydb/internal/store"
)

func init() {
	register(&Command{Name: "GET", Arity: -2, Flags: FlagReadOnly | FlagFast, Handler: cmdGet, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "SET", Arity: 3, Flags: FlagWrite | FlagFast, Handler: cmdSet, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "SETNX", Arity: -3, Flags: FlagWrite | FlagFast, Handler: cmdSetNX, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "SETEX", Arity: -4, Flags: FlagWrite, Handler: cmdSetEX, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "PSETEX", Arity: -4, Flags: FlagWrite, Handler: cmdPSetEX, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "GETSET", Arity: -3, Flags: FlagWrite | FlagFast, Handler: cmdGetSet, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "GETDEL", Arity: -2, Flags: FlagWrite | FlagFast, Handler: cmdGetDel, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "APPEND", Arity: -3, Flags: FlagWrite, Handler: cmdAppend, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "STRLEN", Arity: -2, Flags: FlagReadOnly | FlagFast, Handler: cmdStrlen, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "GETRANGE", Arity: -4, Flags: FlagReadOnly, Handler: cmdGetRange, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "SETRANGE", Arity: -4, Flags: FlagWrite, Handler: cmdSetRange, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "INCR", Arity: -2, Flags: FlagWrite | FlagFast, Handler: cmdIncr, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "DECR", Arity: -2, Flags: FlagWrite | FlagFast, Handler: cmdDecr, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "INCRBY", Arity: -3, Flags: FlagWrite | FlagFast, Handler: cmdIncrBy, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "DECRBY", Arity: -3, Flags: FlagWrite | FlagFast, Handler: cmdDecrBy, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "INCRBYFLOAT", Arity: -3, Flags: FlagWrite | FlagFast, Handler: cmdIncrByFloat, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "MGET", Arity: 2, Flags: FlagReadOnly | FlagFast, Handler: cmdMGet, FirstKey: 1, LastKey: -1, KeyStep: 1})
	register(&Command{Name: "MSET", Arity: 3, Flags: FlagWrite, Handler: cmdMSet, FirstKey: 1, LastKey: -1, KeyStep: 2})
	register(&Command{Name: "MSETNX", Arity: 3, Flags: FlagWrite, Handler: cmdMSetNX, FirstKey: 1, LastKey: -1, KeyStep: 2})
}

// relativeDeadline computes nowMs + n*unitMs with overflow detection:
// ok=false means the requested expiry is unrepresentable (Redis rejects
// it as an invalid expire time rather than wrapping).
func relativeDeadline(nowMs, n, unitMs int64) (int64, bool) {
	if n > 0 && n > ((1<<62)-nowMs)/unitMs {
		return 0, false
	}
	if n < 0 && n < (-(1<<62))/unitMs {
		return 0, false
	}
	return nowMs + n*unitMs, true
}

func cmdGet(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.lookupKind(string(argv[1]), store.KindString)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Nil
	}
	return resp.Bulk(obj.Str())
}

// cmdSet implements SET with NX/XX/EX/PX/EXAT/PXAT/KEEPTTL/GET. Relative
// expirations replicate as absolute PXAT so replicas and recovery apply
// the same deadline (§2.1 deterministic replication).
func cmdSet(e *Engine, argv [][]byte) resp.Value {
	val := argv[2]
	var (
		nx, xx, keepTTL, withGet bool
		expireAtMs               int64 // 0 = none
	)
	now := e.Now()
	for i := 3; i < len(argv); i++ {
		opt := strings.ToUpper(string(argv[i]))
		switch opt {
		case "NX":
			nx = true
		case "XX":
			xx = true
		case "KEEPTTL":
			keepTTL = true
		case "GET":
			withGet = true
		case "EX", "PX", "EXAT", "PXAT":
			if i+1 >= len(argv) {
				return errSyntax()
			}
			n, ok := parseInt(argv[i+1])
			if !ok {
				return errNotInt()
			}
			i++
			var okTTL bool
			switch opt {
			case "EX":
				expireAtMs, okTTL = relativeDeadline(now.UnixMilli(), n, 1000)
			case "PX":
				expireAtMs, okTTL = relativeDeadline(now.UnixMilli(), n, 1)
			case "EXAT":
				expireAtMs, okTTL = n*1000, n <= (1<<62)/1000
			case "PXAT":
				expireAtMs, okTTL = n, true
			}
			if !okTTL {
				return resp.Err("ERR invalid expire time in 'set' command")
			}
		default:
			return errSyntax()
		}
	}
	if nx && xx {
		return errSyntax()
	}
	prev := e.lookup(string(argv[1]))
	var prevReply resp.Value
	if withGet {
		if !prev.Exists() {
			prevReply = resp.Nil
		} else if prev.Kind() != store.KindString {
			return wrongType()
		} else {
			prevReply = resp.Bulk(prev.Str())
		}
	}
	if (nx && prev.Exists()) || (xx && !prev.Exists()) {
		if withGet {
			return prevReply
		}
		return resp.Nil
	}
	var key string
	if keepTTL {
		key = e.db.SetStringKeepTTL(string(argv[1]), val)
	} else {
		key = e.db.SetString(string(argv[1]), val)
	}
	if expireAtMs > 0 {
		e.db.Expire(key, expireAtMs, now)
	}
	e.touch(key)
	// Replicate deterministically: SET key val [PXAT ms] [KEEPTTL].
	switch {
	case expireAtMs > 0:
		var ms [20]byte
		e.propagate([]byte("SET"), argv[1], val, []byte("PXAT"), strconv.AppendInt(ms[:0], expireAtMs, 10))
	case keepTTL:
		e.propagate([]byte("SET"), argv[1], val, []byte("KEEPTTL"))
	default:
		e.propagate([]byte("SET"), argv[1], val)
	}
	if withGet {
		return prevReply
	}
	return resp.OK
}

func cmdSetNX(e *Engine, argv [][]byte) resp.Value {
	if e.lookup(string(argv[1])).Exists() {
		return resp.Int64(0)
	}
	e.touch(e.db.SetString(string(argv[1]), argv[2]))
	e.propagateVerbatim(argv)
	return resp.Int64(1)
}

func cmdSetEX(e *Engine, argv [][]byte) resp.Value {
	return setWithTTL(e, argv, 1000)
}

func cmdPSetEX(e *Engine, argv [][]byte) resp.Value {
	return setWithTTL(e, argv, 1)
}

func setWithTTL(e *Engine, argv [][]byte, unitMs int64) resp.Value {
	key := string(argv[1])
	n, ok := parseInt(argv[2])
	if !ok {
		return errNotInt()
	}
	now := e.Now()
	at, okTTL := relativeDeadline(now.UnixMilli(), n, unitMs)
	if n <= 0 || !okTTL {
		return resp.Errf("ERR invalid expire time in '%s' command", strings.ToLower(string(argv[0])))
	}
	key = e.db.SetString(key, argv[3])
	e.db.Expire(key, at, now)
	e.touch(key)
	e.propagateStrings("SET", key, string(argv[3]), "PXAT", strconv.FormatInt(at, 10))
	return resp.OK
}

func cmdGetSet(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.lookupKind(key, store.KindString)
	if !ok {
		return errReply
	}
	reply := resp.Nil
	if obj.Exists() {
		reply = resp.Bulk(obj.Str())
	}
	e.touch(e.db.SetString(key, argv[2]))
	e.propagateStrings("SET", key, string(argv[2]))
	return reply
}

func cmdGetDel(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.lookupKind(key, store.KindString)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Nil
	}
	reply := resp.Bulk(obj.Str())
	e.db.Delete(key, e.Now())
	e.touch(key)
	e.propagateStrings("DEL", key)
	return reply
}

func cmdAppend(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.lookupKind(key, store.KindString)
	if !ok {
		return errReply
	}
	if len(obj.Str())+len(argv[2]) > resp.MaxBulkLen {
		return errTooLong()
	}
	stored, n := e.db.Append(key, argv[2])
	e.touch(stored)
	e.propagateVerbatim(argv)
	return resp.Int64(int64(n))
}

func cmdStrlen(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.lookupKind(string(argv[1]), store.KindString)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	return resp.Int64(int64(len(obj.Str())))
}

func cmdGetRange(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.lookupKind(string(argv[1]), store.KindString)
	if !ok {
		return errReply
	}
	start, ok1 := parseInt(argv[2])
	end, ok2 := parseInt(argv[3])
	if !ok1 || !ok2 {
		return errNotInt()
	}
	if !obj.Exists() {
		return resp.Bulk(nil)
	}
	n := int64(len(obj.Str()))
	if start < 0 {
		start += n
	}
	if end < 0 {
		end += n
	}
	if start < 0 {
		start = 0
	}
	if end >= n {
		end = n - 1
	}
	if n == 0 || start > end {
		return resp.Bulk(nil)
	}
	return resp.Bulk(obj.Str()[start : end+1])
}

func cmdSetRange(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	off, ok := parseInt(argv[2])
	if !ok {
		return errNotInt()
	}
	if off < 0 {
		return resp.Err("ERR offset is out of range")
	}
	obj, errReply, ok := e.lookupKind(key, store.KindString)
	if !ok {
		return errReply
	}
	cur := obj.Str()
	if len(argv[3]) == 0 {
		return resp.Int64(int64(len(cur)))
	}
	if off > resp.MaxBulkLen-int64(len(argv[3])) {
		return errTooLong()
	}
	// The stored value is immutable: build the new one beside it.
	next := make([]byte, max(int(off)+len(argv[3]), len(cur)))
	copy(next, cur)
	copy(next[off:], argv[3])
	e.touch(e.db.SetString(key, next))
	e.propagateVerbatim(argv)
	return resp.Int64(int64(len(next)))
}

// errTooLong is Redis's reply to a write that would grow a string past
// proto-max-bulk-len.
func errTooLong() resp.Value {
	return resp.Err("ERR string exceeds maximum allowed size (proto-max-bulk-len)")
}

func cmdIncr(e *Engine, argv [][]byte) resp.Value { return incrBy(e, string(argv[1]), 1) }
func cmdDecr(e *Engine, argv [][]byte) resp.Value { return incrBy(e, string(argv[1]), -1) }

func cmdIncrBy(e *Engine, argv [][]byte) resp.Value {
	n, ok := parseInt(argv[2])
	if !ok {
		return errNotInt()
	}
	return incrBy(e, string(argv[1]), n)
}

func cmdDecrBy(e *Engine, argv [][]byte) resp.Value {
	n, ok := parseInt(argv[2])
	if !ok {
		return errNotInt()
	}
	return incrBy(e, string(argv[1]), -n)
}

func incrBy(e *Engine, key string, delta int64) resp.Value {
	obj, errReply, ok := e.lookupKind(key, store.KindString)
	if !ok {
		return errReply
	}
	var cur int64
	if obj.Exists() {
		v, ok := parseInt(obj.Str())
		if !ok {
			return errNotInt()
		}
		cur = v
	}
	// Overflow check.
	if (delta > 0 && cur > (1<<63-1)-delta) || (delta < 0 && cur < -(1<<63-1)-delta-1) {
		return resp.Err("ERR increment or decrement would overflow")
	}
	cur += delta
	var num [20]byte
	s := strconv.AppendInt(num[:0], cur, 10)
	e.touch(e.db.SetStringKeepTTL(key, s))
	// INCR is deterministic; replicate the resulting SET to keep replicas
	// byte-identical even across engine versions with different overflow
	// edge behaviour.
	e.propagateStrings("SET", key, string(s), "KEEPTTL")
	return resp.Int64(cur)
}

func cmdIncrByFloat(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	delta, ok := parseFloat(argv[2])
	if !ok {
		return errNotFloat()
	}
	obj, errReply, ok := e.lookupKind(key, store.KindString)
	if !ok {
		return errReply
	}
	var cur float64
	if obj.Exists() {
		v, ok := parseFloat(obj.Str())
		if !ok {
			return errNotFloat()
		}
		cur = v
	}
	cur += delta
	s := strconv.FormatFloat(cur, 'f', -1, 64)
	e.touch(e.db.SetStringKeepTTL(key, []byte(s)))
	// Float math is replicated as its effect (Redis does the same).
	e.propagateStrings("SET", key, s, "KEEPTTL")
	return resp.BulkStr(s)
}

func cmdMGet(e *Engine, argv [][]byte) resp.Value {
	out := make([]resp.Value, 0, len(argv)-1)
	for _, k := range argv[1:] {
		obj := e.lookup(string(k))
		if !obj.Exists() || obj.Kind() != store.KindString {
			out = append(out, resp.Nil)
		} else {
			out = append(out, resp.Bulk(obj.Str()))
		}
	}
	return resp.ArrayV(out...)
}

func cmdMSet(e *Engine, argv [][]byte) resp.Value {
	if len(argv)%2 != 1 {
		return wrongArity("MSET")
	}
	for i := 1; i < len(argv); i += 2 {
		e.touch(e.db.SetString(string(argv[i]), argv[i+1]))
	}
	e.propagateVerbatim(argv)
	return resp.OK
}

func cmdMSetNX(e *Engine, argv [][]byte) resp.Value {
	if len(argv)%2 != 1 {
		return wrongArity("MSETNX")
	}
	for i := 1; i < len(argv); i += 2 {
		if e.lookup(string(argv[i])).Exists() {
			return resp.Int64(0)
		}
	}
	for i := 1; i < len(argv); i += 2 {
		e.touch(e.db.SetString(string(argv[i]), argv[i+1]))
	}
	e.propagateVerbatim(argv)
	return resp.Int64(1)
}
