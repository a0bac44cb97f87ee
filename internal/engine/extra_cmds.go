package engine

import (
	"bytes"
	"strconv"
	"strings"

	"memorydb/internal/resp"
	"memorydb/internal/store"
)

// Second-wave commands: newer Redis 6.2/7.0 additions MemoryDB inherits
// through engine version upgrades (§7.1 motivates tracking them).
func init() {
	register(&Command{Name: "GETEX", Arity: 2, Flags: FlagWrite | FlagFast, Handler: cmdGetEx, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "TOUCH", Arity: 2, Flags: FlagReadOnly | FlagFast, Handler: cmdTouch, FirstKey: 1, LastKey: -1, KeyStep: 1})
	register(&Command{Name: "EXPIRETIME", Arity: -2, Flags: FlagReadOnly | FlagFast, Handler: cmdExpireTime, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "PEXPIRETIME", Arity: -2, Flags: FlagReadOnly | FlagFast, Handler: cmdPExpireTime, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "LPOS", Arity: 3, Flags: FlagReadOnly, Handler: cmdLPos, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "LINSERT", Arity: -5, Flags: FlagWrite, Handler: cmdLInsert, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "SMISMEMBER", Arity: 3, Flags: FlagReadOnly | FlagFast, Handler: cmdSMIsMember, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "SINTERCARD", Arity: 3, Flags: FlagReadOnly, Handler: cmdSInterCard, FindKeys: numKeysAt(1)})
	register(&Command{Name: "ZMSCORE", Arity: 3, Flags: FlagReadOnly | FlagFast, Handler: cmdZMScore, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "HRANDFIELD", Arity: 2, Flags: FlagReadOnly, Handler: cmdHRandField, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "SETBIT", Arity: -4, Flags: FlagWrite, Handler: cmdSetBit, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "GETBIT", Arity: -3, Flags: FlagReadOnly | FlagFast, Handler: cmdGetBit, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "BITCOUNT", Arity: 2, Flags: FlagReadOnly, Handler: cmdBitCount, FirstKey: 1, LastKey: 1, KeyStep: 1})
}

// cmdGetEx implements GETEX: GET plus optional TTL manipulation. TTL
// mutations replicate as absolute PEXPIREAT / PERSIST effects.
func cmdGetEx(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.lookupKind(key, store.KindString)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Nil
	}
	now := e.Now()
	if len(argv) > 2 {
		var expireAtMs int64
		persist := false
		i := 2
		switch strings.ToUpper(string(argv[i])) {
		case "PERSIST":
			persist = true
			if len(argv) != 3 {
				return errSyntax()
			}
		case "EX", "PX", "EXAT", "PXAT":
			if len(argv) != 4 {
				return errSyntax()
			}
			n, okN := parseInt(argv[3])
			if !okN {
				return errNotInt()
			}
			var okTTL bool
			switch strings.ToUpper(string(argv[i])) {
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
				return resp.Err("ERR invalid expire time in 'getex' command")
			}
		default:
			return errSyntax()
		}
		if persist {
			if e.db.Persist(key, now) {
				e.touch(key)
				e.propagateStrings("PERSIST", key)
			}
		} else if expireAtMs > 0 {
			e.db.Expire(key, expireAtMs, now)
			e.touch(key)
			if expireAtMs <= now.UnixMilli() {
				e.propagateStrings("DEL", key)
			} else {
				e.propagateStrings("PEXPIREAT", key, strconv.FormatInt(expireAtMs, 10))
			}
		}
	}
	return resp.Bulk(obj.Str())
}

// cmdTouch counts existing keys (cache-warming no-op in our model; Redis
// updates access clocks, which we do not track).
func cmdTouch(e *Engine, argv [][]byte) resp.Value {
	n := int64(0)
	for _, k := range argv[1:] {
		if e.lookup(string(k)).Exists() {
			n++
		}
	}
	return resp.Int64(n)
}

func cmdExpireTime(e *Engine, argv [][]byte) resp.Value {
	v := cmdPExpireTime(e, argv)
	if v.Type == resp.Integer && v.Int > 0 {
		return resp.Int64(v.Int / 1000)
	}
	return v
}

func cmdPExpireTime(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	if !e.lookup(key).Exists() {
		return resp.Int64(-2)
	}
	at, has := e.db.ExpireAt(key)
	if !has {
		return resp.Int64(-1)
	}
	return resp.Int64(at)
}

// cmdLPos implements LPOS key element [RANK r] [COUNT c].
func cmdLPos(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindList, false)
	if !ok {
		return errReply
	}
	rank := int64(1)
	count := int64(-1) // -1: single match mode
	for i := 3; i < len(argv); i += 2 {
		if i+1 >= len(argv) {
			return errSyntax()
		}
		n, okN := parseInt(argv[i+1])
		if !okN {
			return errNotInt()
		}
		switch strings.ToUpper(string(argv[i])) {
		case "RANK":
			if n == 0 {
				return resp.Err("ERR RANK can't be zero")
			}
			rank = n
		case "COUNT":
			if n < 0 {
				return resp.Err("ERR COUNT can't be negative")
			}
			count = n
		default:
			return errSyntax()
		}
	}
	single := count == -1
	if count == 0 {
		count = int64(1 << 30) // all matches
	}
	if single {
		count = 1
	}
	if !obj.Exists() {
		if single {
			return resp.Nil
		}
		return resp.ArrayV()
	}
	target := string(argv[2])
	var positions []int64
	if rank > 0 {
		idx, skip := int64(0), rank-1
		obj.List().Walk(func(v []byte) bool {
			if string(v) == target {
				if skip > 0 {
					skip--
				} else {
					positions = append(positions, idx)
					if int64(len(positions)) >= count {
						return false
					}
				}
			}
			idx++
			return true
		})
	} else {
		// Negative rank: scan from the tail.
		var all []int64
		idx := int64(0)
		obj.List().Walk(func(v []byte) bool {
			if string(v) == target {
				all = append(all, idx)
			}
			idx++
			return true
		})
		skip := -rank - 1
		for i := int64(len(all)) - 1 - skip; i >= 0 && int64(len(positions)) < count; i-- {
			positions = append(positions, all[i])
		}
	}
	if single {
		if len(positions) == 0 {
			return resp.Nil
		}
		return resp.Int64(positions[0])
	}
	out := make([]resp.Value, len(positions))
	for i, p := range positions {
		out[i] = resp.Int64(p)
	}
	return resp.ArrayV(out...)
}

// cmdLInsert implements LINSERT key BEFORE|AFTER pivot element.
func cmdLInsert(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	var before bool
	switch strings.ToUpper(string(argv[2])) {
	case "BEFORE":
		before = true
	case "AFTER":
		before = false
	default:
		return errSyntax()
	}
	obj, errReply, ok := e.aggregateAt(key, store.KindList, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	if !obj.List().Insert(argv[3], bytes.Clone(argv[4]), before) {
		return resp.Int64(-1)
	}
	e.touch(key)
	e.propagateVerbatim(argv)
	return resp.Int64(int64(obj.List().Len()))
}

func cmdSMIsMember(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindSet, false)
	if !ok {
		return errReply
	}
	out := make([]resp.Value, 0, len(argv)-2)
	for _, m := range argv[2:] {
		present := int64(0)
		if obj.Exists() {
			if obj.Set().Has(string(m)) {
				present = 1
			}
		}
		out = append(out, resp.Int64(present))
	}
	return resp.ArrayV(out...)
}

// cmdSInterCard implements SINTERCARD numkeys key... [LIMIT n].
func cmdSInterCard(e *Engine, argv [][]byte) resp.Value {
	numKeys, ok := parseInt(argv[1])
	if !ok || numKeys <= 0 {
		return resp.Err("ERR numkeys should be greater than 0")
	}
	// Compare without arithmetic on numKeys: a huge count would overflow
	// 2+numKeys and slip past the bound check.
	if numKeys > int64(len(argv))-2 {
		return resp.Err("ERR Number of keys can't be greater than number of args")
	}
	keys := argv[2 : 2+numKeys]
	limit := int64(-1)
	rest := argv[2+numKeys:]
	if len(rest) == 2 && strings.EqualFold(string(rest[0]), "LIMIT") {
		n, okN := parseInt(rest[1])
		if !okN || n < 0 {
			return resp.Err("ERR LIMIT can't be negative")
		}
		if n > 0 {
			limit = n
		}
	} else if len(rest) != 0 {
		return errSyntax()
	}
	acc, errReply, okOp := setOp(e, keys, 'i')
	if !okOp {
		return errReply
	}
	card := int64(len(acc))
	if limit >= 0 && card > limit {
		card = limit
	}
	return resp.Int64(card)
}

func cmdZMScore(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindZSet, false)
	if !ok {
		return errReply
	}
	out := make([]resp.Value, 0, len(argv)-2)
	for _, m := range argv[2:] {
		if !obj.Exists() {
			out = append(out, resp.Nil)
			continue
		}
		if s, exists := obj.ZSet().Score(string(m)); exists {
			out = append(out, resp.BulkStr(fmtScore(s)))
		} else {
			out = append(out, resp.Nil)
		}
	}
	return resp.ArrayV(out...)
}

// cmdHRandField implements HRANDFIELD key [count [WITHVALUES]].
func cmdHRandField(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindHash, false)
	if !ok {
		return errReply
	}
	if len(argv) == 2 {
		if !obj.Exists() {
			return resp.Nil
		}
		fields := obj.Hash().Fields()
		return resp.BulkStr(fields[e.rand().Intn(len(fields))])
	}
	n, okN := parseInt(argv[2])
	if !okN {
		return errNotInt()
	}
	withValues := false
	if len(argv) == 4 {
		if !strings.EqualFold(string(argv[3]), "WITHVALUES") {
			return errSyntax()
		}
		withValues = true
	} else if len(argv) > 4 {
		return errSyntax()
	}
	if !obj.Exists() {
		return resp.ArrayV()
	}
	fields := obj.Hash().Fields()
	var chosen []string
	if n >= 0 {
		if n > int64(len(fields)) {
			n = int64(len(fields))
		}
		for _, i := range e.rand().Perm(len(fields))[:n] {
			chosen = append(chosen, fields[i])
		}
	} else {
		for i := int64(0); i < -n; i++ {
			chosen = append(chosen, fields[e.rand().Intn(len(fields))])
		}
	}
	out := make([]resp.Value, 0, len(chosen)*2)
	for _, f := range chosen {
		out = append(out, resp.BulkStr(f))
		if withValues {
			v, _ := obj.Hash().Get(f)
			out = append(out, resp.Bulk(v))
		}
	}
	return resp.ArrayV(out...)
}

// cmdSetBit implements SETBIT key offset 0|1.
func cmdSetBit(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	off, ok := parseInt(argv[2])
	if !ok || off < 0 || off >= 4<<30 {
		return resp.Err("ERR bit offset is not an integer or out of range")
	}
	bit, ok := parseInt(argv[3])
	if !ok || (bit != 0 && bit != 1) {
		return resp.Err("ERR bit is not an integer or out of range")
	}
	obj, errReply, okK := e.lookupKind(key, store.KindString)
	if !okK {
		return errReply
	}
	// The stored value is immutable: flip the bit in a copy.
	byteIdx := int(off / 8)
	cur := make([]byte, max(byteIdx+1, len(obj.Str())))
	copy(cur, obj.Str())
	mask := byte(1) << (7 - uint(off%8))
	old := int64(0)
	if cur[byteIdx]&mask != 0 {
		old = 1
	}
	if bit == 1 {
		cur[byteIdx] |= mask
	} else {
		cur[byteIdx] &^= mask
	}
	e.touch(e.db.SetStringKeepTTL(key, cur))
	e.propagateVerbatim(argv)
	return resp.Int64(old)
}

func cmdGetBit(e *Engine, argv [][]byte) resp.Value {
	off, ok := parseInt(argv[2])
	if !ok || off < 0 {
		return resp.Err("ERR bit offset is not an integer or out of range")
	}
	obj, errReply, okK := e.lookupKind(string(argv[1]), store.KindString)
	if !okK {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	byteIdx := int(off / 8)
	if byteIdx >= len(obj.Str()) {
		return resp.Int64(0)
	}
	if obj.Str()[byteIdx]&(1<<(7-uint(off%8))) != 0 {
		return resp.Int64(1)
	}
	return resp.Int64(0)
}

// cmdBitCount implements BITCOUNT key [start end] (byte ranges only).
func cmdBitCount(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, okK := e.lookupKind(string(argv[1]), store.KindString)
	if !okK {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	data := obj.Str()
	if len(argv) == 4 {
		start, ok1 := parseInt(argv[2])
		end, ok2 := parseInt(argv[3])
		if !ok1 || !ok2 {
			return errNotInt()
		}
		n := int64(len(data))
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
		if start > end || n == 0 {
			return resp.Int64(0)
		}
		data = data[start : end+1]
	} else if len(argv) != 2 {
		return errSyntax()
	}
	count := int64(0)
	for _, b := range data {
		for b != 0 {
			count += int64(b & 1)
			b >>= 1
		}
	}
	return resp.Int64(count)
}
