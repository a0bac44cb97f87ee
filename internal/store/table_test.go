package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// TestSlotSize pins the table's slot — the Object itself — at 16 bytes.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got > 16 {
		t.Fatalf("a table slot is %d bytes, want <= 16", got)
	}
}

// FuzzTable feeds tableRun an operation stream: the first byte sizes the
// key space (1 to 512 keys), then each operation is an op byte and two
// bytes of key.
func FuzzTable(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 0, 2, 7, 0, 1})
	f.Add([]byte{9, 0, 1, 0, 5, 2, 0, 7, 1, 0, 14, 0, 0, 0xff, 0, 0, 15, 0, 0})
	seq := []byte{6}
	for i := 0; i < 200; i++ {
		seq = append(seq, byte(i%11), byte(i), byte(i>>8))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r, keys := newTableRun(), 1<<(data[0]%10)
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			key := fmt.Sprintf("k%d", int(binary.LittleEndian.Uint16(data[1:]))%keys)
			if err := r.step(data[0], key); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.checkAll(); err != nil {
			t.Fatal(err)
		}
	})
}

// tableShape returns the slots of every part's live array and the mean
// probe length of a key: the slots a lookup reads from its home to it.
func tableShape(db *DB) (slots int, meanProbe float64) {
	probes, keys := 0, 0
	for i := range db.parts {
		t := &db.parts[i].table
		slots += len(t.cur.tags)
		for _, a := range []*array{&t.cur, &t.old} {
			mask := len(a.tags) - 1
			for j, tag := range a.tags {
				if tag >= tagFull {
					home := int(t.hash(a.slots[j].key()) >> a.shift)
					probes += (j-home)&mask + 1
					keys++
				}
			}
		}
	}
	return slots, float64(probes) / float64(keys)
}

// TestTableChurnKeepsShape deletes and re-inserts half of 50 000 keys 20
// times: at a constant key count the tables must not grow, and a key must
// not get further from its home than after a fresh load.
func TestTableChurnKeepsShape(t *testing.T) {
	const keys = 50_000
	name := func(i int) string { return fmt.Sprintf("key:%08d", i) }
	db := NewDB()
	for i := 0; i < keys; i++ {
		db.SetString(name(i), []byte("v"))
	}
	slots, probe := tableShape(db)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		half := rng.Perm(keys)[:keys/2]
		for _, i := range half {
			if !db.Delete(name(i), t0) {
				t.Fatalf("round %d: %s missing", round, name(i))
			}
		}
		for _, i := range half {
			db.SetString(name(i), []byte("v"))
		}
	}
	churned, churnedProbe := tableShape(db)
	t.Logf("%d slots, mean probe %.2f fresh; %d slots, %.2f after churn", slots, probe, churned, churnedProbe)
	if churned != slots {
		t.Errorf("churn at %d keys took the tables from %d slots to %d", keys, slots, churned)
	}
	if churnedProbe > 1.5*probe {
		t.Errorf("churn took the mean probe from %.2f slots to %.2f, want within 1.5x", probe, churnedProbe)
	}
}

// TestTableGrowsIncrementally loads one table with 100 000 keys: no insert
// may move more than 64 old slots, however many growths it crosses.
func TestTableGrowsIncrementally(t *testing.T) {
	tb := &NewDB().parts[0].table
	growths, most := 0, 0
	for i := 0; i < 100_000; i++ {
		next, draining := tb.next, len(tb.old.tags)
		k := fmt.Sprintf("k%d", i)
		tb.put(k, newString(k, 1, []byte("v")))
		moved := tb.next - next
		if len(tb.old.tags) != draining {
			moved = draining - next // the drain finished, and perhaps a growth began
			if len(tb.old.tags) > 0 {
				growths++
			}
		}
		most = max(most, moved)
	}
	t.Logf("%d growths to %d slots, at most %d old slots moved by one insert", growths, len(tb.cur.tags), most)
	if most > 64 {
		t.Errorf("one insert moved %d old slots, want <= 64", most)
	}
	if want := 14; growths != want { // 8 slots → 2^17
		t.Errorf("%d growths, want %d", growths, want)
	}
}
