package engine

import (
	"sort"
	"strconv"
	"strings"

	"memorydb/internal/resp"
	"memorydb/internal/store"
)

func init() {
	register(&Command{Name: "DEL", Arity: 2, Flags: FlagWrite, Handler: cmdDel, FirstKey: 1, LastKey: -1, KeyStep: 1})
	register(&Command{Name: "UNLINK", Arity: 2, Flags: FlagWrite, Handler: cmdDel, FirstKey: 1, LastKey: -1, KeyStep: 1})
	register(&Command{Name: "EXISTS", Arity: 2, Flags: FlagReadOnly | FlagFast, Handler: cmdExists, FirstKey: 1, LastKey: -1, KeyStep: 1})
	register(&Command{Name: "TYPE", Arity: -2, Flags: FlagReadOnly | FlagFast, Handler: cmdType, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "EXPIRE", Arity: -3, Flags: FlagWrite | FlagFast, Handler: cmdExpire, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "PEXPIRE", Arity: -3, Flags: FlagWrite | FlagFast, Handler: cmdPExpire, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "EXPIREAT", Arity: -3, Flags: FlagWrite | FlagFast, Handler: cmdExpireAt, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "PEXPIREAT", Arity: -3, Flags: FlagWrite | FlagFast, Handler: cmdPExpireAt, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "PERSIST", Arity: -2, Flags: FlagWrite | FlagFast, Handler: cmdPersist, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "TTL", Arity: -2, Flags: FlagReadOnly | FlagFast, Handler: cmdTTL, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "PTTL", Arity: -2, Flags: FlagReadOnly | FlagFast, Handler: cmdPTTL, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "KEYS", Arity: -2, Flags: FlagReadOnly | FlagKeyspace, Handler: cmdKeys})
	register(&Command{Name: "SCAN", Arity: 2, Flags: FlagReadOnly | FlagKeyspace, Handler: cmdScan})
	register(&Command{Name: "DBSIZE", Arity: -1, Flags: FlagReadOnly | FlagFast | FlagKeyspace, Handler: cmdDBSize})
	register(&Command{Name: "FLUSHALL", Arity: 1, Flags: FlagWrite, Handler: cmdFlushAll})
	register(&Command{Name: "FLUSHDB", Arity: 1, Flags: FlagWrite, Handler: cmdFlushAll})
	register(&Command{Name: "RANDOMKEY", Arity: -1, Flags: FlagReadOnly | FlagKeyspace, Handler: cmdRandomKey})
	register(&Command{Name: "RENAME", Arity: -3, Flags: FlagWrite, Handler: cmdRename, FirstKey: 1, LastKey: 2, KeyStep: 1})
	register(&Command{Name: "RENAMENX", Arity: -3, Flags: FlagWrite, Handler: cmdRenameNX, FirstKey: 1, LastKey: 2, KeyStep: 1})
	register(&Command{Name: "PING", Arity: 1, Flags: FlagReadOnly | FlagFast | FlagLocal, Handler: cmdPing})
	register(&Command{Name: "ECHO", Arity: -2, Flags: FlagReadOnly | FlagFast | FlagLocal, Handler: cmdEcho})
	register(&Command{Name: "TIME", Arity: -1, Flags: FlagReadOnly | FlagFast | FlagLocal, Handler: cmdTime})
	register(&Command{Name: "COMMAND", Arity: 1, Flags: FlagReadOnly | FlagLocal, Handler: cmdCommand})
}

func cmdDel(e *Engine, argv [][]byte) resp.Value {
	n := int64(0)
	now := e.Now()
	for _, k := range argv[1:] {
		key := string(k)
		if e.db.Delete(key, now) {
			n++
			e.touch(key)
			e.propagateStrings("DEL", key)
		}
	}
	return resp.Int64(n)
}

func cmdExists(e *Engine, argv [][]byte) resp.Value {
	n := int64(0)
	for _, k := range argv[1:] {
		if e.lookup(string(k)).Exists() {
			n++
		}
	}
	return resp.Int64(n)
}

func cmdType(e *Engine, argv [][]byte) resp.Value {
	obj := e.lookup(string(argv[1]))
	if !obj.Exists() {
		return resp.Simple("none")
	}
	return resp.Simple(obj.Kind().String())
}

func cmdExpire(e *Engine, argv [][]byte) resp.Value {
	return expireGeneric(e, argv, 1000, true)
}

func cmdPExpire(e *Engine, argv [][]byte) resp.Value {
	return expireGeneric(e, argv, 1, true)
}

func cmdExpireAt(e *Engine, argv [][]byte) resp.Value {
	return expireGeneric(e, argv, 1000, false)
}

func cmdPExpireAt(e *Engine, argv [][]byte) resp.Value {
	return expireGeneric(e, argv, 1, false)
}

// expireGeneric implements the EXPIRE family. Relative forms replicate as
// PEXPIREAT with the absolute deadline so every consumer of the
// replication stream applies an identical expiry (§2.1).
func expireGeneric(e *Engine, argv [][]byte, unitMs int64, relative bool) resp.Value {
	key := string(argv[1])
	n, ok := parseInt(argv[2])
	if !ok {
		return errNotInt()
	}
	now := e.Now()
	var at int64
	if relative {
		var okTTL bool
		at, okTTL = relativeDeadline(now.UnixMilli(), n, unitMs)
		if !okTTL {
			return resp.Errf("ERR invalid expire time in '%s' command", strings.ToLower(string(argv[0])))
		}
	} else {
		if unitMs == 1000 && n > (1<<62)/1000 {
			return resp.Errf("ERR invalid expire time in '%s' command", strings.ToLower(string(argv[0])))
		}
		at = n * unitMs
	}
	if !e.db.Expire(key, at, now) {
		return resp.Int64(0)
	}
	e.touch(key)
	if at <= now.UnixMilli() {
		e.propagateStrings("DEL", key)
	} else {
		e.propagateStrings("PEXPIREAT", key, strconv.FormatInt(at, 10))
	}
	return resp.Int64(1)
}

func cmdPersist(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	if !e.db.Persist(key, e.Now()) {
		return resp.Int64(0)
	}
	e.touch(key)
	e.propagateVerbatim(argv)
	return resp.Int64(1)
}

func cmdTTL(e *Engine, argv [][]byte) resp.Value {
	d, hasTTL, ok := e.db.TTL(string(argv[1]), e.Now())
	if !ok {
		return resp.Int64(-2)
	}
	if !hasTTL {
		return resp.Int64(-1)
	}
	return resp.Int64(int64((d + 500e6) / 1e9)) // round to seconds
}

func cmdPTTL(e *Engine, argv [][]byte) resp.Value {
	d, hasTTL, ok := e.db.TTL(string(argv[1]), e.Now())
	if !ok {
		return resp.Int64(-2)
	}
	if !hasTTL {
		return resp.Int64(-1)
	}
	return resp.Int64(int64(d / 1e6))
}

func cmdKeys(e *Engine, argv [][]byte) resp.Value {
	keys := e.db.Keys(string(argv[1]), e.Now())
	sort.Strings(keys)
	return resp.BulkArray(keys...)
}

// cmdScan implements a simplified SCAN: the cursor is an index into the
// sorted key list. Unlike Redis's reverse-binary cursor it is O(n log n)
// per call, but it provides the same guarantee clients rely on (every key
// present for the whole iteration is returned at least once).
func cmdScan(e *Engine, argv [][]byte) resp.Value {
	cursor, ok := parseInt(argv[1])
	if !ok || cursor < 0 {
		return resp.Err("ERR invalid cursor")
	}
	pattern := "*"
	count := int64(10)
	for i := 2; i < len(argv); i++ {
		switch strings.ToUpper(string(argv[i])) {
		case "MATCH":
			if i+1 >= len(argv) {
				return errSyntax()
			}
			pattern = string(argv[i+1])
			i++
		case "COUNT":
			if i+1 >= len(argv) {
				return errSyntax()
			}
			n, ok := parseInt(argv[i+1])
			if !ok || n <= 0 {
				return errSyntax()
			}
			count = n
			i++
		default:
			return errSyntax()
		}
	}
	keys := e.db.Keys("*", e.Now())
	sort.Strings(keys)
	var batch []string
	i := cursor
	for ; i < int64(len(keys)) && int64(len(batch)) < count; i++ {
		// Pattern filtering happens after pagination, like Redis: COUNT
		// bounds work examined, not results returned.
		if pattern == "*" || matchScan(pattern, keys[i]) {
			batch = append(batch, keys[i])
		}
	}
	next := "0"
	if i < int64(len(keys)) {
		next = strconv.FormatInt(i, 10)
	}
	return resp.ArrayV(resp.BulkStr(next), resp.BulkArray(batch...))
}

func matchScan(pattern, key string) bool {
	return store.GlobMatch(pattern, key)
}

func cmdDBSize(e *Engine, argv [][]byte) resp.Value {
	return resp.Int64(int64(e.db.LiveLen(e.Now())))
}

func cmdFlushAll(e *Engine, argv [][]byte) resp.Value {
	e.db.Flush()
	e.propagateStrings("FLUSHALL")
	return resp.OK
}

func cmdRandomKey(e *Engine, argv [][]byte) resp.Value {
	k, ok := e.db.RandomKey(e.Now())
	if !ok {
		return resp.Nil
	}
	return resp.BulkStr(k)
}

func cmdRename(e *Engine, argv [][]byte) resp.Value {
	return renameGeneric(e, argv, false)
}

func cmdRenameNX(e *Engine, argv [][]byte) resp.Value {
	return renameGeneric(e, argv, true)
}

func renameGeneric(e *Engine, argv [][]byte, nx bool) resp.Value {
	src, dst := string(argv[1]), string(argv[2])
	obj := e.lookup(src)
	if !obj.Exists() {
		return resp.Err("ERR no such key")
	}
	if nx && e.lookup(dst).Exists() {
		return resp.Int64(0)
	}
	exp, hadTTL := e.db.ExpireAt(src)
	now := e.Now()
	e.db.Delete(src, now)
	e.db.Set(dst, obj)
	if hadTTL {
		e.db.Expire(dst, exp, now)
	}
	e.touch(src)
	e.touch(dst)
	e.propagateVerbatim(argv)
	if nx {
		return resp.Int64(1)
	}
	return resp.OK
}

func cmdPing(e *Engine, argv [][]byte) resp.Value { return resp.Pong }

func cmdEcho(e *Engine, argv [][]byte) resp.Value { return resp.Bulk(argv[1]) }

func cmdTime(e *Engine, argv [][]byte) resp.Value {
	now := e.Now()
	return resp.BulkArray(
		strconv.FormatInt(now.Unix(), 10),
		strconv.FormatInt(int64(now.Nanosecond())/1000, 10),
	)
}

// cmdCommand returns the command table in a trimmed-down COMMAND format:
// name, arity, flags. The consistency testing framework parses this to
// generate command coverage (§7.2.2.2).
func cmdCommand(e *Engine, argv [][]byte) resp.Value {
	names := CommandNames()
	out := make([]resp.Value, 0, len(names))
	for _, n := range names {
		c := commandTable[n]
		flags := []resp.Value{}
		if c.Writes() {
			flags = append(flags, resp.Simple("write"))
		} else {
			flags = append(flags, resp.Simple("readonly"))
		}
		if c.Flags&FlagFast != 0 {
			flags = append(flags, resp.Simple("fast"))
		}
		out = append(out, resp.ArrayV(
			resp.BulkStr(strings.ToLower(n)),
			resp.Int64(int64(c.Arity)),
			resp.ArrayV(flags...),
			resp.Int64(int64(c.FirstKey)),
			resp.Int64(int64(c.LastKey)),
			resp.Int64(int64(c.KeyStep)),
		))
	}
	return resp.ArrayV(out...)
}
