package engine

import (
	"strconv"

	"memorydb/internal/store"
)

// DumpCommands returns a deterministic command sequence that recreates
// key's current value (and TTL) on another node, starting with a DEL so
// the sequence is idempotent regardless of the target's prior state. It
// is the serialization format of slot migration (§5.2): keys are shipped
// as ordinary commands so the target primary commits them to its own
// transaction log like any other write.
func (e *Engine) DumpCommands(key string) [][][]byte {
	obj, ok := e.db.Peek(key)
	if !ok {
		return nil
	}
	var cmds [][][]byte
	add := func(args ...string) {
		argv := make([][]byte, len(args))
		for i, a := range args {
			argv[i] = []byte(a)
		}
		cmds = append(cmds, argv)
	}
	add("DEL", key)
	switch obj.Kind() {
	case store.KindString:
		add("SET", key, string(obj.Str()))
	case store.KindHash:
		args := []string{"HSET", key}
		obj.Hash().Walk(func(f string, v []byte) { args = append(args, f, string(v)) })
		add(args...)
	case store.KindList:
		args := []string{"RPUSH", key}
		obj.List().Walk(func(v []byte) bool {
			args = append(args, string(v))
			return true
		})
		add(args...)
	case store.KindSet:
		args := []string{"SADD", key}
		add(append(args, obj.Set().Members()...)...)
	case store.KindZSet:
		args := []string{"ZADD", key}
		for _, en := range obj.ZSet().Range(0, obj.ZSet().Len()-1) {
			args = append(args, fmtScore(en.Score), en.Member)
		}
		add(args...)
	case store.KindStream:
		obj.Stream().Walk(func(en store.StreamEntry) bool {
			args := []string{"XADD", key, en.ID.String()}
			for _, f := range en.Fields {
				args = append(args, string(f))
			}
			add(args...)
			return true
		})
	}
	if exp, has := e.db.ExpireAt(key); has {
		add("PEXPIREAT", key, strconv.FormatInt(exp, 10))
	}
	return cmds
}
