// Package store implements the in-memory data structures of the execution
// engine: strings, hashes, lists, sets, sorted sets (skiplist), streams and
// HyperLogLogs, with per-key TTLs and per-slot key counts used by cluster
// resharding. The keyspace is striped into NumParts slot-aligned parts so
// that sharded engine workloops (package core) can each own a disjoint
// subset of parts without locking: a part is only ever touched by the
// workloop that owns its slot range (or by a coordinator that has quiesced
// every workloop). Within a part the store is not internally synchronized,
// like Redis. The aggregate counters (key count, footprint) are atomics so
// monitoring can read them without stopping the workloops.
package store

import (
	"hash/maphash"
	"math/bits"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"memorydb/internal/crc16"
)

// NumParts is the number of slot-aligned stripes the keyspace is divided
// into. Each part covers a contiguous range of crc16 slots
// (crc16.NumSlots/NumParts = 256 slots per part), and a sharded node
// assigns whole parts to sub-engine workloops, so NumParts is also the
// maximum useful shard count.
const NumParts = 64

// slotsPerPartShift is log2(crc16.NumSlots / NumParts).
const slotsPerPartShift = 8

// PartOfSlot returns the part index owning a crc16 slot.
func PartOfSlot(slot uint16) int { return int(slot >> slotsPerPartShift) }

// PartOfKey returns the part index owning a key.
func PartOfKey[K ~string | ~[]byte](key K) int { return PartOfSlot(crc16.Slot(key)) }

// Kind enumerates value types.
type Kind uint8

// Value kinds stored in the keyspace.
const (
	KindNone Kind = iota
	KindString
	KindHash
	KindList
	KindSet
	KindZSet
	KindStream
)

// String returns the Redis TYPE name for k.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindHash:
		return "hash"
	case KindList:
		return "list"
	case KindSet:
		return "set"
	case KindZSet:
		return "zset"
	case KindStream:
		return "stream"
	}
	return "none"
}

// Object is a keyspace value, and the slot of its part's table that holds
// it: a pointer and a word of lengths and flags, 16 bytes.
//
// A string — and a HyperLogLog, which is its dense representation in a
// string, matching Redis — is one allocation: a buffer that holds the key's
// bytes and then the value's, which p addresses. A published buffer is
// immutable up to the longest length any object over it has had: a reply
// may still hold the value, so a command that changes a string stores a
// new buffer, and only APPEND writes into an old one, past its end. Every
// other kind's p is its *aggregate, which carries the key and whose one
// populated field the accessors (Hash, Set, List, ZSet, Stream) read.
//
// The zero Object is no value: Lookup and Peek return it for a missing key.
type Object struct {
	p unsafe.Pointer
	// m holds the value's length (a string's), the key's length, the kind
	// and the grown bit: a buffer APPEND sized, whose value capacity is
	// the power of two at or above its length, so appends up to it write
	// in place.
	m uint64
}

// The fields of Object.m. A length fits in lenBits because neither a key
// nor a value is longer than resp.MaxBulkLen, 2^29.
const (
	lenBits   = 30
	lenMask   = 1<<lenBits - 1
	kindShift = 2 * lenBits
	grownBit  = 1 << 63
)

func objectMeta(kind Kind, klen, n int, grown bool) uint64 {
	if klen > lenMask || n > lenMask {
		panic("store: key or value longer than 1 GiB")
	}
	m := uint64(n) | uint64(klen)<<lenBits | uint64(kind)<<kindShift
	if grown {
		m |= grownBit
	}
	return m
}

// aggregate is the representation of a non-string object: the key it is
// stored under, and the one field the object's kind names.
type aggregate struct {
	key    string
	hash   map[string][]byte
	set    map[string]struct{}
	list   *List
	zset   *ZSet
	stream *Stream
}

// New returns an empty object of the given aggregate kind. Strings are
// only ever made by the DB, with their key (SetString).
func New(kind Kind) Object {
	a := &aggregate{}
	switch kind {
	case KindHash:
		a.hash = make(map[string][]byte)
	case KindSet:
		a.set = make(map[string]struct{})
	case KindList:
		a.list = NewList()
	case KindZSet:
		a.zset = NewZSet()
	case KindStream:
		a.stream = NewStream()
	default:
		panic("store: New of kind " + kind.String())
	}
	return Object{p: unsafe.Pointer(a), m: objectMeta(kind, 0, 0, false)}
}

// keyed returns aggregate o as stored under key: carrying key, or a copy
// carrying it if o is another key's.
func (o Object) keyed(key string) Object {
	a := o.agg()
	if a.key != key {
		if a.key != "" {
			c := *a
			a = &c
		}
		a.key = key
	}
	return Object{p: unsafe.Pointer(a), m: objectMeta(o.Kind(), len(key), 0, false)}
}

// newString builds the one buffer of a string key: the key, then the
// values concatenated, with room for a value of capacity bytes. An empty
// value still gets a byte of its own, so the value's address is never one
// past the end of the allocation.
func newString(key string, capacity int, vals ...[]byte) Object {
	buf := make([]byte, len(key)+max(capacity, 1))
	n := copy(buf, key)
	for _, v := range vals {
		n += copy(buf[n:], v)
	}
	n -= len(key)
	return Object{p: unsafe.Pointer(unsafe.SliceData(buf)), m: objectMeta(KindString, len(key), n, capacity > n)}
}

// key returns the key o is stored under: a view of a string's buffer, or
// the key an aggregate carries.
func (o Object) key() string {
	if o.Kind() == KindString {
		return unsafe.String((*byte)(o.p), o.klen())
	}
	return o.agg().key
}

// is reports whether o is stored under key.
func (o Object) is(key string) bool { return o.klen() == len(key) && o.key() == key }

func (o Object) klen() int { return int(o.m >> lenBits & lenMask) }

// n is a string's value length.
func (o Object) n() int { return int(o.m & lenMask) }

func (o Object) grown() bool { return o.m&grownBit != 0 }

// value is the address of a string's value.
func (o Object) value() *byte { return (*byte)(unsafe.Add(o.p, o.klen())) }

// capacity is a string's value capacity: n, or for a buffer APPEND sized
// the power of two at or above it.
func (o Object) capacity() int {
	if o.grown() {
		return 1 << bits.Len32(uint32(o.n())-1)
	}
	return o.n()
}

// Kind returns the object's value type; KindNone for the zero Object.
func (o Object) Kind() Kind { return Kind(o.m >> kindShift & 7) }

// Exists reports whether o is a value rather than the zero Object.
func (o Object) Exists() bool { return o.Kind() != KindNone }

// Str returns a string's value. The bytes are shared with the keyspace and
// with every reply that returned them: they must never be written.
func (o Object) Str() []byte {
	if o.Kind() != KindString {
		return nil
	}
	return unsafe.Slice(o.value(), o.n())
}

func (o Object) agg() *aggregate {
	if o.Kind() <= KindString {
		return nil
	}
	return (*aggregate)(o.p)
}

// Hash returns a hash's field map.
func (o Object) Hash() map[string][]byte { return o.agg().hash }

// Set returns a set's member map.
func (o Object) Set() map[string]struct{} { return o.agg().set }

// List returns a list.
func (o Object) List() *List { return o.agg().list }

// ZSet returns a sorted set.
func (o Object) ZSet() *ZSet { return o.agg().zset }

// Stream returns a stream.
func (o Object) Stream() *Stream { return o.agg().stream }

// allocSize approximates what the allocator hands out for n bytes: its
// size classes step by 16 up to 256 bytes and by about an eighth of the
// size above that.
func allocSize(n int) int64 {
	step := 16
	if n > 256 {
		step = 1 << (bits.Len(uint(n-1)) - 4)
	}
	return int64((n + step - 1) / step * step)
}

// size estimates what o stored under key costs beyond its table slot, which
// the table's arrays charge; it is INFO's used_bytes share of the key.
func (o Object) size(key string) int64 {
	if o.Kind() == KindString {
		return allocSize(len(key) + max(o.capacity(), 1))
	}
	n := allocSize(len(key)) + allocSize(int(unsafe.Sizeof(aggregate{})))
	switch o.Kind() {
	case KindHash:
		for f, v := range o.Hash() {
			n += int64(len(f)+len(v)) + 64
		}
	case KindSet:
		for m := range o.Set() {
			n += int64(len(m)) + 48
		}
	case KindList:
		n += o.List().MemUsage()
	case KindZSet:
		n += o.ZSet().MemUsage()
	case KindStream:
		n += o.Stream().MemUsage()
	}
	return n
}

// part is one slot-aligned stripe of the keyspace.
type part struct {
	table   table
	expires map[string]int64 // unix ms; present only for volatile keys
}

// expired reports whether key carries a TTL that has passed at nowMs. Most
// parts hold no volatile key, so the common case is one length test.
func (p *part) expired(key string, nowMs int64) bool {
	if len(p.expires) == 0 {
		return false
	}
	exp, ok := p.expires[key]
	return ok && exp <= nowMs
}

// DB is the keyspace: keys to objects with expirations in unix
// milliseconds, striped into NumParts slot-aligned parts. A part's table
// is the only dictionary a key is in; slot migration, the one reader that
// wants a slot's keys, gets them by scanning the slot's part (SlotKeys),
// and slotKeys keeps the per-slot counts exact so that counting is O(1).
// A slot's count belongs to the owner of its part, like the part itself.
type DB struct {
	parts    [NumParts]part
	slotKeys [crc16.NumSlots]uint32
	// seed keys the tables' hash: random per DB, so no client can choose
	// keys that share a probe path.
	seed maphash.Seed

	length    atomic.Int64 // live key count (including not-yet-reaped)
	usedBytes atomic.Int64 // running footprint estimate
}

// NewDB returns an empty keyspace.
func NewDB() *DB {
	db := &DB{seed: maphash.MakeSeed()}
	db.reset()
	return db
}

func (db *DB) reset() {
	for i := range db.parts {
		db.parts[i] = part{
			table:   table{db: db},
			expires: make(map[string]int64),
		}
	}
	db.slotKeys = [crc16.NumSlots]uint32{}
}

func (db *DB) part(key string) *part { return &db.parts[PartOfKey(key)] }

// Len returns the number of live keys (including not-yet-reaped expired
// keys; callers that need exactness should sweep first).
func (db *DB) Len() int { return int(db.length.Load()) }

// LiveLen returns the number of keys live at now: Len less the volatile
// keys whose TTL has passed and that nothing has reaped yet. It allocates
// nothing, and with no volatile key it is Len.
func (db *DB) LiveLen(now time.Time) int {
	n, nowMs := db.Len(), now.UnixMilli()
	for i := range db.parts {
		for _, exp := range db.parts[i].expires {
			if exp <= nowMs {
				n--
			}
		}
	}
	return n
}

// UsedBytes returns the running memory footprint estimate.
func (db *DB) UsedBytes() int64 { return db.usedBytes.Load() }

// Lookup returns the object at key if present and not expired at now, or
// the zero Object. Expired keys are lazily reaped (caller is the engine
// workloop owning the key's part, so this mutation is safe). The reaped flag
// reports whether a lazy expiry happened, which the engine must replicate as
// a deterministic delete.
func (db *DB) Lookup(key string, now time.Time) (obj Object, reaped bool) {
	p := db.part(key)
	s := p.table.get(key)
	if s == nil {
		return Object{}, false
	}
	if p.expired(key, now.UnixMilli()) {
		db.remove(key)
		return Object{}, true
	}
	return *s, false
}

// Peek returns the object at key without expiry processing.
func (db *DB) Peek(key string) (Object, bool) {
	if s := db.part(key).table.get(key); s != nil {
		return *s, true
	}
	return Object{}, false
}

// Set stores obj at key, replacing any previous value and clearing any TTL
// (matching SET semantics; commands that preserve TTL must re-arm it). A
// string is copied into a buffer with key, as SetString does.
func (db *DB) Set(key string, obj Object) {
	if obj.Kind() == KindString {
		obj = newString(key, obj.n(), obj.Str())
	} else {
		obj = obj.keyed(key)
	}
	db.set(obj, false)
}

// SetString stores val at key as a string, replacing any previous value
// and clearing any TTL. It is the one place a string is made: key and val
// are copied into one buffer, and the returned key is the view of it the
// table compares — a caller that keeps the key (the dirty-key list) keeps
// no second copy of it.
func (db *DB) SetString(key string, val []byte) string {
	obj := newString(key, len(val), val)
	db.set(obj, false)
	return obj.key()
}

// SetStringKeepTTL is SetString preserving an existing expiration.
func (db *DB) SetStringKeepTTL(key string, val []byte) string {
	obj := newString(key, len(val), val)
	db.set(obj, true)
	return obj.key()
}

// Append appends tail to the string at key — the caller has checked that
// key holds a live string or nothing — and returns the stored key and the
// value's new length. It keeps APPEND amortized O(1) without rewriting a
// published byte: a string's first append moves it to a buffer whose value
// capacity is the next power of two, and later appends that fit write past
// the current end, which every reply taken so far stops short of.
func (db *DB) Append(key string, tail []byte) (string, int) {
	old, ok := db.Peek(key)
	if !ok {
		return db.SetString(key, tail), len(tail)
	}
	obj, n := old, old.n()+len(tail)
	if n > old.capacity() {
		obj = newString(key, 1<<bits.Len(uint(n-1)), old.Str(), tail)
	} else {
		copy(unsafe.Slice(old.value(), n)[old.n():], tail)
		obj.m = objectMeta(KindString, old.klen(), n, old.grown())
	}
	db.set(obj, true)
	return obj.key(), n
}

// set stores obj under the key it carries. Its slot replaces any old one
// whole, so an overwritten string's buffer is not kept alive by the table.
func (db *DB) set(obj Object, keepTTL bool) {
	key := obj.key()
	slot := crc16.Slot(key)
	p := &db.parts[PartOfSlot(slot)]
	size := obj.size(key)
	if old := p.table.put(key, obj); old.Exists() {
		db.AdjustUsed(size - old.size(key))
		if len(p.expires) > 0 {
			if !keepTTL {
				delete(p.expires, key)
			} else if exp, ok := p.expires[key]; ok {
				p.expires[key] = exp // re-keyed onto the new key, like the slot
			}
		}
	} else {
		db.slotKeys[slot]++
		db.length.Add(1)
		db.usedBytes.Add(size)
	}
}

// AdjustUsed applies a footprint delta after an in-place mutation.
func (db *DB) AdjustUsed(delta int64) {
	if v := db.usedBytes.Add(delta); v < 0 {
		db.usedBytes.Store(0)
	}
}

// Delete removes key, returning whether it existed (expired keys count as
// absent at now).
func (db *DB) Delete(key string, now time.Time) bool {
	live := !db.part(key).expired(key, now.UnixMilli())
	return db.remove(key) && live
}

// remove deletes key and reports whether it was there.
func (db *DB) remove(key string) bool {
	slot := crc16.Slot(key)
	p := &db.parts[PartOfSlot(slot)]
	o := p.table.del(key)
	if !o.Exists() {
		return false
	}
	db.AdjustUsed(-o.size(key))
	delete(p.expires, key)
	db.slotKeys[slot]--
	db.length.Add(-1)
	return true
}

// Expire sets the expiration of key to at (unix ms). Returns false if the
// key does not exist.
func (db *DB) Expire(key string, at int64, now time.Time) bool {
	if o, _ := db.Lookup(key, now); !o.Exists() {
		return false
	}
	if at <= now.UnixMilli() {
		db.remove(key)
		return true
	}
	db.part(key).expires[key] = at
	return true
}

// Persist removes the TTL from key; reports whether a TTL was removed.
func (db *DB) Persist(key string, now time.Time) bool {
	if o, _ := db.Lookup(key, now); !o.Exists() {
		return false
	}
	p := db.part(key)
	if _, ok := p.expires[key]; !ok {
		return false
	}
	delete(p.expires, key)
	return true
}

// TTL returns the remaining lifetime of key at now.
// ok=false: key missing. hasTTL=false: key exists but is persistent.
func (db *DB) TTL(key string, now time.Time) (d time.Duration, hasTTL, ok bool) {
	if o, _ := db.Lookup(key, now); !o.Exists() {
		return 0, false, false
	}
	exp, has := db.part(key).expires[key]
	if !has {
		return 0, false, true
	}
	return time.Duration(exp-now.UnixMilli()) * time.Millisecond, true, true
}

// ExpireAt returns the raw expiration (unix ms) for key, if any.
func (db *DB) ExpireAt(key string) (int64, bool) {
	e, ok := db.part(key).expires[key]
	return e, ok
}

// Keys returns all live keys at now matching the glob pattern.
func (db *DB) Keys(pattern string, now time.Time) []string {
	var out []string
	nowMs := now.UnixMilli()
	for i := range db.parts {
		p := &db.parts[i]
		p.table.each(0, func(o Object) bool {
			if k := o.key(); !p.expired(k, nowMs) && GlobMatch(pattern, k) {
				out = append(out, k)
			}
			return true
		})
	}
	return out
}

// SlotKeys returns the keys stored in slot by scanning the slot's part
// for them: O(keys in that 1/NumParts of the keyspace), so a caller
// working through a slot takes the list once and polls SlotCount.
func (db *DB) SlotKeys(slot uint16) []string {
	out := make([]string, 0, db.slotKeys[slot])
	db.parts[PartOfSlot(slot)].table.each(0, func(o Object) bool {
		if k := o.key(); crc16.Slot(k) == slot {
			out = append(out, k)
		}
		return len(out) < cap(out)
	})
	return out
}

// SlotCount returns the number of keys in slot.
func (db *DB) SlotCount(slot uint16) int { return int(db.slotKeys[slot]) }

// SweepExpiredParts is SweepExpired restricted to parts [lo, hi). Sharded
// workloops sweep only the parts they own, so an expired delete is always
// emitted by — and group-committed behind — the same buffer as the writes
// that created the key, preserving replica apply order per key. The keys
// are strings of their own: a string key's table key was a view of a
// buffer that is now garbage, and the caller's dirty-key list outlives it.
func (db *DB) SweepExpiredParts(now time.Time, limit, lo, hi int) []string {
	nowMs := now.UnixMilli()
	var out []string
	for i := lo; i < hi && i < NumParts; i++ {
		for k, exp := range db.parts[i].expires {
			if exp <= nowMs {
				k = strings.Clone(k)
				db.remove(k)
				out = append(out, k)
				if len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}

// ForEach visits every live key/object pair at now. Iteration order is the
// part order, then table order within a part (unspecified). The callback
// must not mutate the keyspace.
func (db *DB) ForEach(now time.Time, fn func(key string, obj Object, expireAt int64) bool) {
	nowMs := now.UnixMilli()
	for i := range db.parts {
		p := &db.parts[i]
		if !p.table.each(0, func(o Object) bool {
			k := o.key()
			exp, has := p.expires[k]
			return has && exp <= nowMs || fn(k, o, exp)
		}) {
			return
		}
	}
}

// Flush drops the entire keyspace.
func (db *DB) Flush() {
	db.reset()
	db.length.Store(0)
	db.usedBytes.Store(0)
}

// RandomKey returns an arbitrary live key at now, or "" if empty: the first
// from a random slot of a random part on.
func (db *DB) RandomKey(now time.Time) (string, bool) {
	nowMs := now.UnixMilli()
	r := rand.Uint64()
	var key string
	for i := range db.parts {
		p := &db.parts[(int(r%NumParts)+i)%NumParts]
		if !p.table.each(int(r>>32), func(o Object) bool {
			key = o.key()
			return p.expired(key, nowMs)
		}) {
			return key, true
		}
	}
	return "", false
}
