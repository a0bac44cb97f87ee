package engine

import (
	"strconv"
	"strings"

	"memorydb/internal/resp"
	"memorydb/internal/store"
)

func init() {
	register(&Command{Name: "XADD", Arity: 5, Flags: FlagWrite | FlagFast, Handler: cmdXAdd, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "XLEN", Arity: -2, Flags: FlagReadOnly | FlagFast, Handler: cmdXLen, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "XRANGE", Arity: 4, Flags: FlagReadOnly, Handler: cmdXRange, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "XDEL", Arity: 3, Flags: FlagWrite | FlagFast, Handler: cmdXDel, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "XTRIM", Arity: -4, Flags: FlagWrite, Handler: cmdXTrim, FirstKey: 1, LastKey: 1, KeyStep: 1})
	register(&Command{Name: "XREAD", Arity: 4, Flags: FlagReadOnly, Handler: cmdXRead, FindKeys: streamKeys})
}

// cmdXAdd appends a stream entry. Auto-generated IDs ("*") are another
// non-determinism source: the chosen ID is replicated explicitly so every
// consumer of the log stores the identical entry.
func cmdXAdd(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	i := 2
	maxLen := -1
	if strings.EqualFold(string(argv[i]), "MAXLEN") {
		i++
		if i < len(argv) && (string(argv[i]) == "~" || string(argv[i]) == "=") {
			i++
		}
		if i >= len(argv) {
			return errSyntax()
		}
		n, ok := parseInt(argv[i])
		if !ok || n < 0 {
			return errNotInt()
		}
		maxLen = int(n)
		i++
	}
	if i >= len(argv) {
		return wrongArity("XADD")
	}
	idArg := string(argv[i])
	i++
	fields := argv[i:]
	if len(fields) == 0 || len(fields)%2 != 0 {
		return wrongArity("XADD")
	}
	obj, errReply, ok := e.aggregateAt(key, store.KindStream, false)
	if !ok {
		return errReply
	}
	created := false
	if !obj.Exists() {
		obj = store.New(store.KindStream)
		created = true
	}
	auto := idArg == "*"
	var id store.StreamID
	if !auto {
		// "ms-*" partial auto form.
		if strings.HasSuffix(idArg, "-*") {
			ms, err := strconv.ParseUint(strings.TrimSuffix(idArg, "-*"), 10, 64)
			if err != nil {
				return resp.Err("ERR Invalid stream ID specified as stream command argument")
			}
			last := obj.Stream().LastID()
			if last.Ms == ms {
				id = store.StreamID{Ms: ms, Seq: last.Seq + 1}
			} else {
				id = store.StreamID{Ms: ms, Seq: 0}
			}
		} else {
			var err error
			id, err = store.ParseStreamID(idArg, 0)
			if err != nil {
				return resp.Err("ERR Invalid stream ID specified as stream command argument")
			}
		}
	}
	copied := make([][]byte, len(fields))
	for j, f := range fields {
		copied[j] = append([]byte(nil), f...)
	}
	assigned, err := obj.Stream().Add(id, auto, uint64(e.Now().UnixMilli()), copied)
	if err != nil {
		// A failed XADD must not leave an empty stream object behind.
		return resp.Errf("ERR %s", err.Error())
	}
	if created {
		e.db.Set(key, obj)
	}
	var removed int
	if maxLen >= 0 {
		removed = obj.Stream().TrimMaxLen(maxLen)
	}
	e.touch(key)
	eff := make([][]byte, 0, 3+len(fields))
	eff = append(eff, []byte("XADD"), argv[1], []byte(assigned.String()))
	eff = append(eff, fields...)
	e.propagate(eff...)
	if removed > 0 {
		e.propagateStrings("XTRIM", key, "MAXLEN", strconv.Itoa(maxLen))
	}
	return resp.BulkStr(assigned.String())
}

func cmdXLen(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindStream, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	return resp.Int64(int64(obj.Stream().Len()))
}

func entryReply(en store.StreamEntry) resp.Value {
	fv := make([]resp.Value, len(en.Fields))
	for i, f := range en.Fields {
		fv[i] = resp.Bulk(f)
	}
	return resp.ArrayV(resp.BulkStr(en.ID.String()), resp.ArrayV(fv...))
}

func cmdXRange(e *Engine, argv [][]byte) resp.Value {
	obj, errReply, ok := e.aggregateAt(string(argv[1]), store.KindStream, false)
	if !ok {
		return errReply
	}
	start, err1 := store.ParseStreamID(string(argv[2]), 0)
	end, err2 := store.ParseStreamID(string(argv[3]), ^uint64(0))
	if err1 != nil || err2 != nil {
		return resp.Err("ERR Invalid stream ID specified as stream command argument")
	}
	count := 0
	if len(argv) >= 6 && strings.EqualFold(string(argv[4]), "COUNT") {
		n, ok := parseInt(argv[5])
		if !ok || n < 0 {
			return errNotInt()
		}
		count = int(n)
	} else if len(argv) > 4 {
		return errSyntax()
	}
	if !obj.Exists() {
		return resp.ArrayV()
	}
	entries := obj.Stream().Range(start, end, count)
	out := make([]resp.Value, len(entries))
	for i, en := range entries {
		out[i] = entryReply(en)
	}
	return resp.ArrayV(out...)
}

func cmdXDel(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	obj, errReply, ok := e.aggregateAt(key, store.KindStream, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	n := int64(0)
	for _, idArg := range argv[2:] {
		id, err := store.ParseStreamID(string(idArg), 0)
		if err != nil {
			return resp.Err("ERR Invalid stream ID specified as stream command argument")
		}
		if obj.Stream().Delete(id) {
			n++
		}
	}
	if n > 0 {
		e.touch(key)
		e.propagateVerbatim(argv)
	}
	return resp.Int64(n)
}

func cmdXTrim(e *Engine, argv [][]byte) resp.Value {
	key := string(argv[1])
	if !strings.EqualFold(string(argv[2]), "MAXLEN") {
		return errSyntax()
	}
	i := 3
	if i < len(argv) && (string(argv[i]) == "~" || string(argv[i]) == "=") {
		i++
	}
	if i >= len(argv) {
		return errSyntax()
	}
	n, ok := parseInt(argv[i])
	if !ok || n < 0 {
		return errNotInt()
	}
	obj, errReply, ok := e.aggregateAt(key, store.KindStream, false)
	if !ok {
		return errReply
	}
	if !obj.Exists() {
		return resp.Int64(0)
	}
	removed := obj.Stream().TrimMaxLen(int(n))
	if removed > 0 {
		e.touch(key)
		e.propagateStrings("XTRIM", key, "MAXLEN", strconv.FormatInt(n, 10))
	}
	return resp.Int64(int64(removed))
}

// cmdXRead implements the non-blocking XREAD form:
// XREAD [COUNT n] STREAMS key... id...
func cmdXRead(e *Engine, argv [][]byte) resp.Value {
	i := 1
	count := 0
	if strings.EqualFold(string(argv[i]), "COUNT") {
		if i+1 >= len(argv) {
			return errSyntax()
		}
		n, ok := parseInt(argv[i+1])
		if !ok || n < 0 {
			return errNotInt()
		}
		count = int(n)
		i += 2
	}
	if i >= len(argv) || !strings.EqualFold(string(argv[i]), "STREAMS") {
		return errSyntax()
	}
	i++
	rest := argv[i:]
	if len(rest) == 0 || len(rest)%2 != 0 {
		return resp.Err("ERR Unbalanced XREAD list of streams: for each stream key an ID or '$' must be specified.")
	}
	nStreams := len(rest) / 2
	var out []resp.Value
	for s := 0; s < nStreams; s++ {
		key := string(rest[s])
		idArg := string(rest[nStreams+s])
		obj, errReply, ok := e.aggregateAt(key, store.KindStream, false)
		if !ok {
			return errReply
		}
		if !obj.Exists() {
			continue
		}
		var from store.StreamID
		if idArg == "$" {
			from = obj.Stream().LastID()
		} else {
			var err error
			from, err = store.ParseStreamID(idArg, 0)
			if err != nil {
				return resp.Err("ERR Invalid stream ID specified as stream command argument")
			}
		}
		entries := obj.Stream().After(from, count)
		if len(entries) == 0 {
			continue
		}
		es := make([]resp.Value, len(entries))
		for j, en := range entries {
			es[j] = entryReply(en)
		}
		out = append(out, resp.ArrayV(resp.BulkStr(key), resp.ArrayV(es...)))
	}
	if len(out) == 0 {
		return resp.NullArray()
	}
	return resp.ArrayV(out...)
}
