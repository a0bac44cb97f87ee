// Package store implements the in-memory data structures of the execution
// engine: strings, hashes, lists, sets, sorted sets (skiplist), streams and
// HyperLogLogs, with per-key TTLs and per-slot key counts used by cluster
// resharding. The keyspace is striped into NumParts slot-aligned parts, and
// a part has one owner at a time: the node's workloop (package core), or
// one of the workers restoring a snapshot in parallel (package snapshot).
// Within a part the store is not internally synchronized, like Redis, and
// that includes the part's share of the key count and the footprint: a
// reader of the totals must own every part (on a node, run on the
// workloop).
package store

import (
	"hash/maphash"
	"math/bits"
	"math/rand/v2"
	"strings"
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
// other kind's p is its representation — a Hash, Set, List, ZSet or Stream,
// which the accessors of those names return — headed by an aggregate that
// carries the key.
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

// aggregate heads the representation of every non-string object: Hash,
// Set, List, ZSet and Stream embed it as their first field, so an Object's
// pointer addresses both. It holds the key the object is stored under, what
// the object's contents cost under its kind's formula, and, while the object
// is stored, the used_bytes share of its part. Every mutation of the
// contents charges its delta through charge, so used_bytes follows the
// contents themselves: however they were built — by commands, by a replica's
// effects or by a snapshot restore — the same contents cost the same.
type aggregate struct {
	key   string
	bytes int64
	used  *int64
}

// charge adds n to what the contents cost, and to the part's used_bytes
// while the object is stored.
func (a *aggregate) charge(n int64) {
	a.bytes += n
	if a.used != nil {
		*a.used += n
	}
}

// shellBytes is what the header of each aggregate kind costs; a sorted
// set's includes its skiplist's header and maxLevel-link head node.
var shellBytes = [...]int64{
	KindHash: allocSize(int(unsafe.Sizeof(Hash{}))),
	KindList: allocSize(int(unsafe.Sizeof(List{}))),
	KindSet:  allocSize(int(unsafe.Sizeof(Set{}))),
	KindZSet: allocSize(int(unsafe.Sizeof(ZSet{}))) + allocSize(int(unsafe.Sizeof(skiplist{}))) +
		allocSize(int(unsafe.Sizeof(slNode{}))) + allocSize(maxLevel*int(unsafe.Sizeof(slLink{}))),
	KindStream: allocSize(int(unsafe.Sizeof(Stream{}))),
}

// New returns an empty object of the given aggregate kind. Strings are
// only ever made by the DB, with their key (SetString).
func New(kind Kind) Object {
	var p unsafe.Pointer
	switch kind {
	case KindHash:
		p = unsafe.Pointer(&Hash{m: make(map[string][]byte)})
	case KindSet:
		p = unsafe.Pointer(&Set{m: make(map[string]struct{})})
	case KindList:
		p = unsafe.Pointer(NewList())
	case KindZSet:
		p = unsafe.Pointer(NewZSet())
	case KindStream:
		p = unsafe.Pointer(NewStream())
	default:
		panic("store: New of kind " + kind.String())
	}
	return Object{p: p, m: objectMeta(kind, 0, 0, false)}
}

// keyed returns aggregate o as stored under key. An aggregate is stored
// under one key at a time: RENAME deletes the old key before it stores the
// object under the new one.
func (o Object) keyed(key string) Object {
	a := o.agg()
	if a.key != key {
		if a.used != nil {
			panic("store: an aggregate stored under " + a.key + " stored again under " + key)
		}
		a.key = key
	}
	return Object{p: o.p, m: objectMeta(o.Kind(), len(key), 0, false)}
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

// Hash returns a hash, or nil if o is not one.
func (o Object) Hash() *Hash { return (*Hash)(o.as(KindHash)) }

// Set returns a set, or nil if o is not one.
func (o Object) Set() *Set { return (*Set)(o.as(KindSet)) }

// List returns a list, or nil if o is not one.
func (o Object) List() *List { return (*List)(o.as(KindList)) }

// ZSet returns a sorted set, or nil if o is not one.
func (o Object) ZSet() *ZSet { return (*ZSet)(o.as(KindZSet)) }

// Stream returns a stream, or nil if o is not one.
func (o Object) Stream() *Stream { return (*Stream)(o.as(KindStream)) }

func (o Object) as(kind Kind) unsafe.Pointer {
	if o.Kind() != kind {
		return nil
	}
	return o.p
}

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

// Cost is INFO's used_bytes share of stored object o, beyond its table
// slot, which the table's arrays charge: a string's buffer, or an
// aggregate's key, its header and its contents under its kind's formula.
// The zero Object costs nothing.
func (o Object) Cost() int64 {
	switch kind := o.Kind(); kind {
	case KindNone:
		return 0
	case KindString:
		return allocSize(o.klen() + max(o.capacity(), 1))
	default:
		a := o.agg()
		return allocSize(len(a.key)) + shellBytes[kind] + a.bytes
	}
}

// stored charges o to part p, and lets its later mutations follow.
func (p *part) stored(o Object) {
	if a := o.agg(); a != nil {
		a.used = &p.used
	}
	p.used += o.Cost()
}

// dropped takes back what o was charged to part p.
func (p *part) dropped(o Object) {
	p.used -= o.Cost()
	if a := o.agg(); a != nil {
		a.used = nil
	}
}

// part is one slot-aligned stripe of the keyspace. Its counters are plain
// integers, written only by the part's owner: the key count is its table's,
// and used is its share of used_bytes, its objects' and its table's arrays.
type part struct {
	table   table
	expires map[string]int64 // unix ms; present only for volatile keys
	used    int64
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
}

// NewDB returns an empty keyspace.
func NewDB() *DB {
	db := &DB{seed: maphash.MakeSeed()}
	db.reset()
	return db
}

func (db *DB) reset() {
	for i := range db.parts {
		p := &db.parts[i]
		*p = part{expires: make(map[string]int64)}
		p.table = table{seed: db.seed, used: &p.used}
	}
	db.slotKeys = [crc16.NumSlots]uint32{}
}

func (db *DB) part(key string) *part { return &db.parts[PartOfKey(key)] }

// Len returns the number of live keys (including not-yet-reaped expired
// keys; callers that need exactness should sweep first). It reads every
// part, so its caller owns them all.
func (db *DB) Len() int {
	n := 0
	for i := range db.parts {
		n += db.parts[i].table.n
	}
	return n
}

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

// UsedBytes returns the running memory footprint estimate. Like Len, it
// reads every part.
func (db *DB) UsedBytes() int64 {
	var n int64
	for i := range db.parts {
		n += db.parts[i].used
	}
	return n
}

// Reserve sizes part i's empty table for keys keys, the array a load of
// that many would grow to, so that loading them grows nothing (a snapshot
// restore, which knows each part's count).
func (db *DB) Reserve(i, keys int) {
	if t := &db.parts[i].table; t.n == 0 && keys > 0 {
		t.reserve(keys)
	}
}

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
	if old := p.table.put(key, obj); old.Exists() {
		p.dropped(old) // before obj is stored: old may be the same aggregate
		if len(p.expires) > 0 {
			if !keepTTL {
				delete(p.expires, key)
			} else if exp, ok := p.expires[key]; ok {
				p.expires[key] = exp // re-keyed onto the new key, like the slot
			}
		}
	} else {
		db.slotKeys[slot]++
	}
	p.stored(obj)
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
	p.dropped(o)
	delete(p.expires, key)
	db.slotKeys[slot]--
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

// SweepExpiredPart removes up to limit keys of part whose TTL has passed
// at now and returns them. The keys are strings of their own: a string
// key's table key was a view of a buffer that is now garbage, and the
// caller's dirty-key list outlives it.
func (db *DB) SweepExpiredPart(now time.Time, limit, part int) []string {
	nowMs := now.UnixMilli()
	var out []string
	for k, exp := range db.parts[part].expires {
		if len(out) >= limit {
			break
		}
		if exp <= nowMs {
			k = strings.Clone(k)
			db.remove(k)
			out = append(out, k)
		}
	}
	return out
}

// ForEach visits every live key/object pair at now. Iteration order is the
// part order, then table order within a part (unspecified). The callback
// must not mutate the keyspace.
func (db *DB) ForEach(now time.Time, fn func(key string, obj Object, expireAt int64) bool) {
	for i := range db.parts {
		if !db.ForEachIn(i, now, fn) {
			return
		}
	}
}

// ForEachIn is ForEach over part i alone, and reports whether fn never
// returned false.
func (db *DB) ForEachIn(i int, now time.Time, fn func(key string, obj Object, expireAt int64) bool) bool {
	nowMs := now.UnixMilli()
	p := &db.parts[i]
	return p.table.each(0, func(o Object) bool {
		k := o.key()
		exp, has := p.expires[k]
		return has && exp <= nowMs || fn(k, o, exp)
	})
}

// Flush drops the entire keyspace. An aggregate it dropped still points at
// its part's counter, so it must not be mutated again.
func (db *DB) Flush() { db.reset() }

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
