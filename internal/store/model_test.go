package store

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"memorydb/internal/crc16"
)

// modelEntry is what the reference keyspace remembers of a key: its value
// — a string, or a hash's one field "f" — and its expiration (0: none).
// Like the DB it keeps a key whose TTL has passed until something reaps it.
type modelEntry struct {
	val  string
	hash bool
	exp  int64
}

// modelRun drives one owner's share of a DB — the parts [lo, hi) — and a
// plain map side by side through random operations, checking after every
// step that the two agree on the touched key, on its slot's count and on
// its slot's key list, and on its parts' key count and footprint, which
// only it writes. whole marks a run that owns every part: only then may it
// Flush, and read the keyspace-wide totals.
type modelRun struct {
	db     *DB
	rng    *rand.Rand
	lo, hi int
	whole  bool
	keys   []string
	model  map[string]modelEntry
	now    time.Time
}

func newModelRun(db *DB, seed int64, lo, hi int) *modelRun {
	r := &modelRun{db: db, rng: rand.New(rand.NewSource(seed)), lo: lo, hi: hi,
		whole: lo == 0 && hi == NumParts, model: map[string]modelEntry{}, now: t0}
	// Hash tags put several keys in one slot; keep the tags whose slot
	// falls in this owner's parts.
	for tag := 0; len(r.keys) < 96; tag++ {
		if p := PartOfKey(fmt.Sprintf("{t%d}", tag)); p < lo || p >= hi {
			continue
		}
		for i := 0; i < 8; i++ {
			r.keys = append(r.keys, fmt.Sprintf("{t%d}k%d", tag, i))
		}
	}
	return r
}

func (r *modelRun) expired(e modelEntry) bool { return e.exp != 0 && e.exp <= r.now.UnixMilli() }

// reap mirrors the lazy expiry of DB.Lookup, which Expire and Persist go
// through: it reports whether key is live, dropping it if its TTL passed.
func (r *modelRun) reap(key string) bool {
	e, ok := r.model[key]
	if ok && r.expired(e) {
		delete(r.model, key)
		return false
	}
	return ok
}

// step applies one random operation to both sides and returns how they
// came to differ, if they did.
func (r *modelRun) step() error {
	db, key := r.db, r.keys[r.rng.Intn(len(r.keys))]
	r.now = r.now.Add(time.Duration(r.rng.Intn(40)) * time.Millisecond)
	nowMs := r.now.UnixMilli()
	val := fmt.Sprintf("v%d", r.rng.Intn(1000))
	if r.rng.Intn(8) == 0 {
		val = "" // an empty value still owns a buffer with its key
	}
	switch op := r.rng.Intn(100); {
	case op < 22:
		db.SetString(key, []byte(val))
		r.model[key] = modelEntry{val: val}
	case op < 30:
		// A hash replaces whatever the key held, and a string it.
		h := New(KindHash)
		h.Hash()["f"] = []byte(val)
		db.Set(key, h)
		r.model[key] = modelEntry{val: val, hash: true}
	case op < 38:
		db.SetStringKeepTTL(key, []byte(val))
		r.model[key] = modelEntry{val: val, exp: r.model[key].exp}
	case op < 45:
		// APPEND's contract: the caller has reaped key and seen a string
		// or nothing.
		if !r.reap(key) {
			db.Lookup(key, r.now)
		} else if r.model[key].hash {
			return r.check(key)
		}
		db.Append(key, []byte(val))
		e := r.model[key]
		r.model[key] = modelEntry{val: e.val + val, exp: e.exp}
	case op < 60:
		e, ok := r.model[key]
		delete(r.model, key)
		if got, want := db.Delete(key, r.now), ok && !r.expired(e); got != want {
			return fmt.Errorf("Delete(%s) = %v, want %v", key, got, want)
		}
	case op < 80:
		at := nowMs + int64(r.rng.Intn(400)) - 50
		want := r.reap(key)
		if want && at <= nowMs {
			delete(r.model, key)
		} else if want {
			e := r.model[key]
			e.exp = at
			r.model[key] = e
		}
		if got := db.Expire(key, at, r.now); got != want {
			return fmt.Errorf("Expire(%s) = %v, want %v", key, got, want)
		}
	case op < 88:
		want := r.reap(key) && r.model[key].exp != 0
		if want {
			e := r.model[key]
			e.exp = 0
			r.model[key] = e
		}
		if got := db.Persist(key, r.now); got != want {
			return fmt.Errorf("Persist(%s) = %v, want %v", key, got, want)
		}
	case op < 98:
		limit := 1 + r.rng.Intn(4)
		swept := db.sweepParts(r.now, limit, r.lo, r.hi)
		for _, k := range swept {
			e, ok := r.model[k]
			if !ok || !r.expired(e) {
				return fmt.Errorf("sweep reaped %s, which the model holds as %+v (present %v)", k, e, ok)
			}
			delete(r.model, k)
		}
		if len(swept) < limit {
			for k, e := range r.model {
				if r.expired(e) {
					return fmt.Errorf("sweep stopped at %d of %d with %s still expired", len(swept), limit, k)
				}
			}
		}
	default:
		if !r.whole {
			return nil
		}
		db.Flush()
		r.model = map[string]modelEntry{}
	}
	return r.check(key)
}

func (r *modelRun) check(key string) error {
	db := r.db
	obj, present := db.Peek(key)
	e, want := r.model[key]
	if present != want {
		return fmt.Errorf("%s: stored %v, model %v %+v", key, present, want, e)
	}
	if present && e.hash && (obj.Kind() != KindHash || len(obj.Hash()) != 1 || string(obj.Hash()["f"]) != e.val) {
		return fmt.Errorf("%s: stored a %v, model holds hash f=%q", key, obj.Kind(), e.val)
	}
	if present && !e.hash && (obj.Kind() != KindString || string(obj.Str()) != e.val) {
		return fmt.Errorf("%s: stored %v %q, model holds string %q", key, obj.Kind(), obj.Str(), e.val)
	}
	if exp, _ := db.ExpireAt(key); exp != e.exp {
		return fmt.Errorf("%s: expires at %d, model says %d", key, exp, e.exp)
	}
	slot := crc16.Slot(key)
	var inSlot []string
	for k := range r.model {
		if crc16.Slot(k) == slot {
			inSlot = append(inSlot, k)
		}
	}
	got := db.SlotKeys(slot)
	sort.Strings(got)
	sort.Strings(inSlot)
	if fmt.Sprint(got) != fmt.Sprint(inSlot) || db.SlotCount(slot) != len(inSlot) {
		return fmt.Errorf("slot %d: SlotKeys %v, SlotCount %d, model %v", slot, got, db.SlotCount(slot), inSlot)
	}
	n, used := 0, int64(0)
	for i := r.lo; i < r.hi; i++ {
		n, used = n+db.parts[i].table.n, used+db.parts[i].used
	}
	if r.whole && (n != db.Len() || used != db.UsedBytes()) {
		return fmt.Errorf("Len, UsedBytes = %d, %d; the parts sum to %d, %d", db.Len(), db.UsedBytes(), n, used)
	}
	if n != len(r.model) {
		return fmt.Errorf("the owner's parts hold %d keys, model %d", n, len(r.model))
	}
	if used < 0 || (used == 0) != (n == 0) {
		return fmt.Errorf("the owner's parts charge %d bytes for %d keys", used, n)
	}
	return nil
}

func TestDBAgainstModel(t *testing.T) {
	r := newModelRun(NewDB(), 1, 0, NumParts)
	for i := 0; i < 20000; i++ {
		if err := r.step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// tableRun drives one part's table and a map side by side, bypassing the
// DB so that any key lands in the one table: insert, overwrite (string over
// hash and back), delete, lookup, iteration and flush, each step followed
// by a check of the touched key and of the table's own invariants.
type tableRun struct {
	db    *DB
	t     *table
	model map[string]modelEntry
	steps int
}

func newTableRun() *tableRun {
	db := NewDB()
	return &tableRun{db: db, t: &db.parts[0].table, model: map[string]modelEntry{}}
}

// step applies operation op to key.
func (r *tableRun) step(op byte, key string) error {
	r.steps++
	val := fmt.Sprintf("v%d", r.steps)
	switch op % 16 {
	case 0, 1, 2, 3, 4:
		r.t.put(key, newString(key, len(val), []byte(val)))
		r.model[key] = modelEntry{val: val}
	case 5, 6:
		h := New(KindHash)
		h.Hash()["f"] = []byte(val)
		r.t.put(key, h.keyed(key))
		r.model[key] = modelEntry{val: val, hash: true}
	case 7, 8, 9, 10:
		_, want := r.model[key]
		delete(r.model, key)
		if got := r.t.del(key).Exists(); got != want {
			return fmt.Errorf("del(%s) found %v, model %v", key, got, want)
		}
	case 11, 12, 13:
	case 14:
		return r.checkAll()
	case 15:
		if op != 0xff {
			return r.checkAll()
		}
		r.db.Flush()
		r.model = map[string]modelEntry{}
	}
	return r.check(key)
}

// check compares key's slot with the model, and the table's count and
// charged bytes with what it holds.
func (r *tableRun) check(key string) error {
	t := r.t
	s := t.get(key)
	e, ok := r.model[key]
	switch {
	case (s != nil) != ok:
		return fmt.Errorf("%s: slot %v, model %v", key, s != nil, ok)
	case s == nil:
	case s.key() != key:
		return fmt.Errorf("%s: found under %q", key, s.key())
	case e.hash && (s.Kind() != KindHash || string(s.Hash()["f"]) != e.val):
		return fmt.Errorf("%s: holds a %v, model a hash f=%q", key, s.Kind(), e.val)
	case !e.hash && (s.Kind() != KindString || string(s.Str()) != e.val):
		return fmt.Errorf("%s: holds %v %q, model the string %q", key, s.Kind(), s.Str(), e.val)
	}
	if t.n != len(r.model) {
		return fmt.Errorf("table holds %d keys, model %d", t.n, len(r.model))
	}
	if used, want := r.db.UsedBytes(), arrayBytes(len(t.cur.tags))+arrayBytes(len(t.old.tags)); used != want {
		return fmt.Errorf("used_bytes %d, arrays %d", used, want)
	}
	if t.n > len(t.cur.tags)*7/8 {
		return fmt.Errorf("%d keys in %d slots: past the 7/8 ceiling", t.n, len(t.cur.tags))
	}
	return nil
}

// checkAll walks every slot: a full slot's tag is its key's, no probe path
// crosses an empty slot, only a draining array holds deleted slots, and the
// iteration visits the model's keys once each.
func (r *tableRun) checkAll() error {
	t := r.t
	for _, a := range []*array{&t.cur, &t.old} {
		mask := len(a.tags) - 1
		for j, tag := range a.tags {
			if tag == tagDeleted && a == &t.cur {
				return fmt.Errorf("the live array has a deleted slot at %d", j)
			}
			if tag < tagFull {
				continue
			}
			h := t.hash(a.slots[j].key())
			if tag != tagOf(h) {
				return fmt.Errorf("slot %d: tag %#x, its key's %#x", j, tag, tagOf(h))
			}
			for i := int(h >> a.shift); i != j; i = (i + 1) & mask {
				if a.tags[i] == tagEmpty {
					return fmt.Errorf("%q at %d: its probe path crosses an empty slot at %d", a.slots[j].key(), j, i)
				}
			}
		}
	}
	seen := map[string]bool{}
	t.each(r.steps, func(o Object) bool {
		seen[o.key()] = !seen[o.key()]
		return true
	})
	for k := range r.model {
		if !seen[k] {
			return fmt.Errorf("iteration missed %q or saw it twice", k)
		}
	}
	if len(seen) != len(r.model) {
		return fmt.Errorf("iteration saw %d keys, model holds %d", len(seen), len(r.model))
	}
	for k := range r.model {
		if err := r.check(k); err != nil {
			return err
		}
	}
	return nil
}

// TestTableAgainstModel runs the table through key spaces from one that a
// single slot word holds to ones that grow it five times, so tags collide
// and growths, deletes and overwrites meet mid-drain.
func TestTableAgainstModel(t *testing.T) {
	for _, keys := range []int{3, 40, 300, 2000} {
		r, rng := newTableRun(), rand.New(rand.NewSource(int64(keys)))
		for i := 0; i < 30000; i++ {
			op := byte(rng.Intn(255)) // 0xff, the flush, comes below
			if i%5000 == 4999 {
				op = 0xff
			}
			if err := r.step(op, fmt.Sprintf("k%d", rng.Intn(keys))); err != nil {
				t.Fatalf("%d keys, step %d: %v", keys, i, err)
			}
		}
		if err := r.checkAll(); err != nil {
			t.Fatalf("%d keys: %v", keys, err)
		}
	}
}

// TestDBAgainstModelTwoOwners is the ownership rule under the race
// detector: two goroutines, each the only one to touch its half of the
// parts (and so its slots' counts and its parts' counters), share one DB.
func TestDBAgainstModelTwoOwners(t *testing.T) {
	db := NewDB()
	runs := []*modelRun{newModelRun(db, 2, 0, NumParts/2), newModelRun(db, 3, NumParts/2, NumParts)}
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(r *modelRun) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				if err := r.step(); err != nil {
					t.Errorf("owner of parts [%d,%d), step %d: %v", r.lo, r.hi, i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if want := len(runs[0].model) + len(runs[1].model); want == 0 || db.Len() != want {
		t.Fatalf("Len = %d, the two models hold %d (0 proves nothing)", db.Len(), want)
	}
	for _, r := range runs {
		for k := range r.model {
			db.Delete(k, time.Time{})
		}
	}
	if db.Len() != 0 || db.UsedBytes() != 0 {
		t.Fatalf("drained keyspace: Len = %d, UsedBytes = %d", db.Len(), db.UsedBytes())
	}
	for slot := 0; slot < crc16.NumSlots; slot++ {
		if n := db.SlotCount(uint16(slot)); n != 0 {
			t.Fatalf("drained keyspace: slot %d counts %d keys", slot, n)
		}
	}
}
