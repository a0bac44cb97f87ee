package main

import "encoding/binary"

const (
	keyLen   = 12 // "key:%08d"
	valueLen = 100
)

// gen is a splitmix64 stream: the whole command sequence of a connection
// is a function of (seed, connection id), nothing else.
type gen struct{ s uint64 }

func newGen(seed int64, stream int) *gen {
	g := &gen{s: uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xD1B54A32D192ED03 + 1}
	g.next() // decorrelate adjacent seeds
	return g
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (g *gen) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	return mix(g.s)
}

// intn returns a uniform value in [0, n) (the modulo bias at n ≪ 2^64 is
// below anything a benchmark could see).
func (g *gen) intn(n int) int { return int(g.next() % uint64(n)) }

// appendKey appends "key:%08d" without allocating.
func appendKey(dst []byte, i int) []byte {
	var d [8]byte
	for p := 7; p >= 0; p-- {
		d[p] = byte('0' + i%10)
		i /= 10
	}
	return append(append(dst, "key:"...), d[:]...)
}

// appendValue appends the 100-byte value of (key, version). Every reply
// the benchmark reads is checked against this function, so a reply is
// right only if it is the latest acknowledged version of that key.
func appendValue(dst []byte, key int, version uint32) []byte {
	var w [8]byte
	x := uint64(key)<<32 | uint64(version)
	for n := 0; n < valueLen; n += 8 {
		x += 0x9E3779B97F4A7C15
		binary.LittleEndian.PutUint64(w[:], mix(x))
		dst = append(dst, w[:min(8, valueLen-n)]...)
	}
	return dst
}

// keyspace is the dataset the harness believes the server holds: n keys,
// each at the version of its last acknowledged write. Connection c owns
// the keys whose index is c modulo the connection count, so two load
// goroutines never write the same key and the final state is exact.
type keyspace struct {
	n        int
	versions []uint32
}

func newKeyspace(n int) *keyspace { return &keyspace{n: n, versions: make([]uint32, n)} }

// pick draws a key owned by connection conn out of conns.
func (k *keyspace) pick(g *gen, conn, conns int) int {
	return g.intn(k.n/conns)*conns + conn
}
