package store

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkDB times the keyspace's hot operations at the benchmark's load —
// 200 000 keys of 12 bytes with 100-byte values — in a random key order,
// through the DB API alone. Insert fills a fresh DB, growth included.
func BenchmarkDB(b *testing.B) {
	const keys = 200_000
	names, misses := make([]string, keys), make([]string, keys)
	for i := range names {
		names[i], misses[i] = fmt.Sprintf("key:%08d", i), fmt.Sprintf("nil:%08d", i)
	}
	order := rand.New(rand.NewSource(1)).Perm(keys)
	val := make([]byte, 100)
	db := NewDB()
	for _, k := range names {
		db.SetString(k, val)
	}
	b.Run("PeekHit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := db.Peek(names[order[i%keys]]); !ok {
				b.Fatal("a loaded key is missing")
			}
		}
	})
	b.Run("PeekMiss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := db.Peek(misses[order[i%keys]]); ok {
				b.Fatal("a key never stored is present")
			}
		}
	})
	b.Run("Overwrite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.SetString(names[order[i%keys]], val)
		}
	})
	b.Run("Insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if i%keys == 0 {
				b.StopTimer()
				db = NewDB()
				b.StartTimer()
			}
			db.SetString(names[order[i%keys]], val)
		}
	})
}
