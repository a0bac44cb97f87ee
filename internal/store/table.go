package store

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"unsafe"
)

// A part's keys live in a hash table of the store's own, shaped like Valkey
// 8's rebuilt hashtable ("From Redis to Valkey and Beyond", PAPERS.md): one
// pointer-sized entry per key and a small hash tag. It is open addressing
// with linear probing over two parallel power-of-two arrays: a tag byte per
// slot, and the slot itself, a 16-byte Object. The key is not stored beside
// the object; a probe compares it in place — a string's buffer starts with
// it, an aggregate carries it. That is 17 bytes a slot where a
// map[string]Object spends 33, at the map's own 7/8 load ceiling.
//
// A full slot's tag is tagFull plus seven bits of its key's hash, whose top
// bits pick the key's home slot; a probe reads eight tags at a time and
// compares a key only where its tag matches, one slot in 128 by chance.
// Deletion shifts the entries behind the hole back into it (Knuth's
// Algorithm R), so the live array never holds a tombstone and churn at a
// constant key count leaves capacity and probe lengths where a fresh load
// of the same keys would. Growth doubles incrementally, as Redis's
// rehashidx does: a growing table holds the old array and the new, every
// write moves growStep old slots across, and a lookup probes both.

// Tag bytes.
const (
	tagEmpty = 0x00
	// tagDeleted marks a slot of an array being drained whose entry has
	// moved or been deleted: a probe passes over it, and nothing is ever
	// placed in it.
	tagDeleted = 0x01
	tagFull    = 0x80
)

const (
	// minSlots is a table's first array: one word of tags.
	minSlots = 8
	// growStep is how many old slots each write moves while a table grows.
	// A growth starts at 7/8 of the old length C and the new array fills
	// at 7/8 of 2C, so at least 7C/8 inserts come between, while the move
	// takes C/growStep writes: it is done long before the next growth.
	growStep = 8

	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// tagOf is the tag of a key with hash h.
func tagOf(h uint64) uint8 { return tagFull | uint8(h&0x7f) }

// matches has the top bit set in each byte of the tag word w equal to tag,
// and possibly in a byte equal to tag^1 above one of those (the borrow of
// the classic zero-byte test) — a full slot too, since tags are full, so a
// false match only costs a key comparison.
func matches(w uint64, tag uint8) uint64 {
	x := w ^ lsbs*uint64(tag)
	return (x - lsbs) &^ x & msbs
}

// empties has the top bit set in each byte of w that is tagEmpty: the only
// tag with neither its top nor its bottom bit set.
func empties(w uint64) uint64 { return ^w & ^(w << 7) & msbs }

// array is one generation of a table's slots.
type array struct {
	tags  []uint8
	slots []Object
	shift uint8 // 64 - log2(len(tags)): a hash's top bits are its home slot
}

func newArray(n int) array {
	return array{tags: make([]uint8, n), slots: make([]Object, n), shift: uint8(64 - bits.TrailingZeros(uint(n)))}
}

// arrayBytes is what the heap charges for an array of n slots.
func arrayBytes(n int) int64 {
	if n == 0 {
		return 0
	}
	return allocSize(n) + allocSize(n*int(unsafe.Sizeof(Object{})))
}

// home returns the word of tags holding the home slot of a key with hash
// h, as the index of its first slot, and a mask of the slots in it at or
// past the home: the first word a probe reads.
func (a *array) home(h uint64) (g int, live uint64) {
	i := int(h >> a.shift)
	return i &^ 7, ^uint64(0) << (uint(i&7) * 8)
}

// find returns the index of key's slot, or -1.
func (a *array) find(key string, h uint64) int {
	if len(a.tags) == 0 {
		return -1
	}
	mask, tag := len(a.tags)-1, tagOf(h)
	for g, live := a.home(h); ; g, live = (g+8)&mask, ^uint64(0) {
		w := binary.LittleEndian.Uint64(a.tags[g:])
		for m := matches(w, tag) & live; m != 0; m &= m - 1 {
			if j := g + bits.TrailingZeros64(m)>>3; a.slots[j].is(key) {
				return j
			}
		}
		if empties(w)&live != 0 {
			return -1
		}
	}
}

// place puts o, whose key hashes to h and is in no slot, in the first
// empty slot from its home.
func (a *array) place(h uint64, o Object) {
	mask := len(a.tags) - 1
	for g, live := a.home(h); ; g, live = (g+8)&mask, ^uint64(0) {
		if m := empties(binary.LittleEndian.Uint64(a.tags[g:])) & live; m != 0 {
			j := g + bits.TrailingZeros64(m)>>3
			a.tags[j], a.slots[j] = tagOf(h), o
			return
		}
	}
}

// table is one part's keys.
type table struct {
	db   *DB // whose seed keys the hash and whose used_bytes the arrays are charged to
	cur  array
	old  array // while the table grows, the array being drained into cur
	next int   // the old slots below next have moved
	n    int   // keys held, in both arrays
}

func (t *table) hash(key string) uint64 { return maphash.String(t.db.seed, key) }

func (t *table) slot(key string, h uint64) *Object {
	if i := t.cur.find(key, h); i >= 0 {
		return &t.cur.slots[i]
	}
	if i := t.old.find(key, h); i >= 0 {
		return &t.old.slots[i]
	}
	return nil
}

// get returns key's slot, or nil.
func (t *table) get(key string) *Object { return t.slot(key, t.hash(key)) }

// put stores o under key and returns the object it replaced: the zero
// Object for a new key.
func (t *table) put(key string, o Object) Object {
	t.step()
	h := t.hash(key)
	if s := t.slot(key, h); s != nil {
		old := *s
		*s = o
		return old
	}
	if t.n >= len(t.cur.tags)*7/8 {
		t.grow()
	}
	t.cur.place(h, o)
	t.n++
	return Object{}
}

// del removes key and returns its object, or the zero Object.
func (t *table) del(key string) Object {
	t.step()
	h := t.hash(key)
	var o Object
	if i := t.cur.find(key, h); i >= 0 {
		o = t.cur.slots[i]
		t.shiftOut(i)
	} else if i := t.old.find(key, h); i >= 0 {
		o = t.old.slots[i]
		t.old.tags[i], t.old.slots[i] = tagDeleted, Object{}
	} else {
		return o
	}
	if t.n--; t.n == 0 {
		t.db.AdjustUsed(-arrayBytes(len(t.cur.tags)) - arrayBytes(len(t.old.tags)))
		t.cur, t.old, t.next = array{}, array{}, 0
	}
	return o
}

// shiftOut empties slot i of cur. Each entry behind it up to the next
// empty slot whose home is not after i moves back into the hole, leaving
// its own, so that no key's probe path crosses an empty slot.
func (t *table) shiftOut(i int) {
	a := &t.cur
	mask := len(a.tags) - 1
	for j := (i + 1) & mask; a.tags[j] != tagEmpty; j = (j + 1) & mask {
		home := int(t.hash(a.slots[j].key()) >> a.shift)
		if (j-home)&mask >= (j-i)&mask {
			a.tags[i], a.slots[i] = a.tags[j], a.slots[j]
			i = j
		}
	}
	a.tags[i], a.slots[i] = tagEmpty, Object{}
}

// grow starts moving the table into an array twice the size.
func (t *table) grow() {
	for t.old.tags != nil {
		t.step() // never runs: see growStep
	}
	n := max(2*len(t.cur.tags), minSlots)
	t.old, t.cur, t.next = t.cur, newArray(n), 0
	t.db.AdjustUsed(arrayBytes(n))
}

// step moves the next growStep slots of a growing table's old array into
// cur, and frees the old array once the last has moved.
func (t *table) step() {
	if t.old.tags == nil {
		return
	}
	end := min(t.next+growStep, len(t.old.tags))
	for i := t.next; i < end; i++ {
		if t.old.tags[i] >= tagFull {
			o := t.old.slots[i]
			t.cur.place(t.hash(o.key()), o)
			t.old.tags[i], t.old.slots[i] = tagDeleted, Object{}
		}
	}
	if t.next = end; end == len(t.old.tags) {
		t.db.AdjustUsed(-arrayBytes(end))
		t.old, t.next = array{}, 0
	}
}

// each calls fn with every object in the table — cur's slots from start
// (modulo its length) on, then the old array's — until fn returns false,
// and reports whether it never did.
func (t *table) each(start int, fn func(Object) bool) bool {
	for _, a := range [...]*array{&t.cur, &t.old} {
		mask := len(a.tags) - 1
		for k := range a.tags {
			if i := (start + k) & mask; a.tags[i] >= tagFull && !fn(a.slots[i]) {
				return false
			}
		}
	}
	return true
}
