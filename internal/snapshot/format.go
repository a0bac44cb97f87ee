// Package snapshot implements MemoryDB's point-in-time snapshots: a
// compact, checksummed serialization of the keyspace stamped with the
// transaction log position (and running log checksum) it covers. The
// package also provides the off-box snapshotter (§4.2.2), its
// verify-then-trim coordinator, and the restore rehearsal verifier
// (§7.2.1).
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"time"

	"memorydb/internal/store"
	"memorydb/internal/txlog"
)

// Magic values framing a snapshot file. V1 framed self-contained full
// snapshots only; V2 adds the chain fields (kind, base position, chain
// depth) the forkless builder needs for incremental deltas. The decoder
// accepts both, so pre-chain snapshots remain restorable.
var (
	magicHeaderV1 = []byte("MDBSNAP1")
	magicHeaderV2 = []byte("MDBSNAP2")
	magicFooter   = []byte("MDBSNAPE")
)

// Kind distinguishes self-contained full snapshots from incremental
// deltas that only make sense applied on top of their parent.
type Kind uint8

const (
	// KindFull is a complete keyspace image; restore starts here.
	KindFull Kind = 0
	// KindDelta holds only the objects changed (and tombstones for keys
	// deleted) since the parent snapshot at Meta.BasePos.
	KindDelta Kind = 1
)

// String names the kind for alarms and INFO.
func (k Kind) String() string {
	if k == KindDelta {
		return "delta"
	}
	return "full"
}

// Meta is the snapshot's provenance: which shard, which engine version
// produced it, and exactly which transaction log prefix it captures.
type Meta struct {
	ShardID       string
	EngineVersion uint32
	// LogPos is the positional identifier of the last log entry included.
	LogPos txlog.EntryID
	// LogChecksum is the log's running checksum as of LogPos; restore
	// rehearsal chains from this value (§7.2.1).
	LogChecksum uint64
	// Kind marks this file as a full image or an incremental delta.
	Kind Kind
	// BasePos is the parent snapshot's LogPos for a delta (the chain
	// link); ZeroID for a full snapshot.
	BasePos txlog.EntryID
	// ChainDepth is the number of deltas between this file and the
	// chain's full base (0 for a full snapshot).
	ChainDepth uint32
}

// Errors returned by the decoder.
var (
	ErrBadSnapshot = errors.New("snapshot: malformed snapshot")
	ErrChecksum    = errors.New("snapshot: data checksum mismatch")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// timeZero is the "no expiry filtering" instant passed to keyspace
// iteration: snapshots capture every stored key verbatim — expiry is
// enforced by the engine and replicated as explicit deletes, so the
// snapshot must not second-guess it with its own clock.
func timeZero() time.Time { return time.Time{} }

// Write serializes db and meta to w as a full snapshot.
func Write(w io.Writer, db *store.DB, meta Meta) error {
	_, err := w.Write(encodeFile(db, true, nil, meta))
	return err
}

// encodeFile is the one snapshot encoder. A full body holds every key of
// db; snapshot writers run on quiescent copies (off-box replicas, the
// builder's private keyspace), so a plain iteration is a consistent cut,
// and a second one visits the same keys in the same order. A delta body
// holds each of keys, or its tombstone. The body is sized before any of
// it is written — a string or a tombstone from its lengths, an aggregate
// by encoding it into a reused scratch buffer — so the file is one
// allocation of exactly its size, which the caller owns: the builder
// uploads it as it is and S3 keeps it.
func encodeFile(db *store.DB, full bool, keys []string, meta Meta) []byte {
	each := func(visit func(key string, obj store.Object, expireAt int64)) {
		if full {
			db.ForEach(timeZero(), func(key string, obj store.Object, expireAt int64) bool {
				visit(key, obj, expireAt)
				return true
			})
		}
		for _, key := range keys {
			obj, _ := db.Peek(key)
			expireAt, _ := db.ExpireAt(key)
			visit(key, obj, expireAt)
		}
	}
	var scratch []byte
	bodyLen := 0
	each(func(key string, obj store.Object, expireAt int64) {
		switch obj.Kind() {
		case store.KindNone:
			bodyLen += 4 + len(key) + 8 + 1
		case store.KindString:
			bodyLen += 4 + len(key) + 8 + 1 + 4 + len(obj.Str())
		default:
			scratch = appendObject(scratch[:0], key, obj, expireAt)
			bodyLen += len(scratch)
		}
	})
	return frame(meta, bodyLen, func(b []byte) []byte {
		each(func(key string, obj store.Object, expireAt int64) {
			b = appendObject(b, key, obj, expireAt)
		})
		return b
	})
}

// frame lays out a snapshot file around the bodyLen bytes body appends:
// the V2 header, the body, and a whole-file CRC64. Everything before the
// stored sum — header, meta, body length, and body — is covered, so a
// flipped byte anywhere in the file (not just the body; a corrupted
// LogPos, BasePos or LogChecksum would silently poison the restore
// rehearsal or snap the chain) is detected before a restore is attempted.
func frame(meta Meta, bodyLen int, body func([]byte) []byte) []byte {
	const fixed = 4 + 8 + 8 + 1 + 8 + 4 + 8 // version … body length
	b := make([]byte, 0, len(magicHeaderV2)+4+len(meta.ShardID)+fixed+bodyLen+8+len(magicFooter))
	b = append(b, magicHeaderV2...)
	b = appendString(b, meta.ShardID)
	b = binary.BigEndian.AppendUint32(b, meta.EngineVersion)
	b = binary.BigEndian.AppendUint64(b, meta.LogPos.Seq)
	b = binary.BigEndian.AppendUint64(b, meta.LogChecksum)
	b = append(b, uint8(meta.Kind))
	b = binary.BigEndian.AppendUint64(b, meta.BasePos.Seq)
	b = binary.BigEndian.AppendUint32(b, meta.ChainDepth)
	b = binary.BigEndian.AppendUint64(b, uint64(bodyLen))
	b = body(b)
	b = binary.BigEndian.AppendUint64(b, crc64.Checksum(b, crcTable))
	return append(b, magicFooter...)
}

// applyBody decodes a verified body's records into db.
func applyBody(body []byte, db *store.DB) error {
	rd := &cursor{body}
	for len(rd.b) > 0 {
		if err := decodeObject(rd, db); err != nil {
			return err
		}
	}
	return nil
}

// readFile verifies a snapshot file's framing and whole-file checksum and
// returns its meta plus the still-encoded body (a subslice of data).
// Chain resolution uses this to validate and order every link before
// applying any of them. Every length it reads is checked against the
// bytes actually present, so a hostile header cannot make it allocate.
func readFile(data []byte) (Meta, []byte, error) {
	rd := &cursor{data}
	var meta Meta
	hdr, err := rd.take(uint32(len(magicHeaderV2)))
	if err != nil {
		return meta, nil, err
	}
	v2 := bytes.Equal(hdr, magicHeaderV2)
	if !v2 && !bytes.Equal(hdr, magicHeaderV1) {
		return meta, nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if meta.ShardID, err = rd.str(); err != nil {
		return meta, nil, err
	}
	// The fixed-width fields, then the body length.
	width := 4 + 8 + 8 + 8
	if v2 {
		width += 1 + 8 + 4
	}
	f, err := rd.take(uint32(width))
	if err != nil {
		return meta, nil, err
	}
	meta.EngineVersion = binary.BigEndian.Uint32(f)
	meta.LogPos.Seq = binary.BigEndian.Uint64(f[4:])
	meta.LogChecksum = binary.BigEndian.Uint64(f[12:])
	f = f[20:]
	if v2 {
		if f[0] > uint8(KindDelta) {
			return meta, nil, fmt.Errorf("%w: unknown snapshot kind %d", ErrBadSnapshot, f[0])
		}
		meta.Kind = Kind(f[0])
		meta.BasePos.Seq = binary.BigEndian.Uint64(f[1:])
		meta.ChainDepth = binary.BigEndian.Uint32(f[9:])
		f = f[13:]
	}
	bodyLen := binary.BigEndian.Uint64(f)
	trailer := 8 + len(magicFooter) // stored sum + footer
	if len(rd.b) < trailer || bodyLen != uint64(len(rd.b)-trailer) {
		return meta, nil, fmt.Errorf("%w: body length %d does not fit the %d bytes present", ErrBadSnapshot, bodyLen, len(rd.b))
	}
	covered := data[:len(data)-trailer]
	body := covered[len(covered)-int(bodyLen):]
	if !bytes.Equal(data[len(data)-len(magicFooter):], magicFooter) {
		return meta, nil, fmt.Errorf("%w: bad footer", ErrBadSnapshot)
	}
	if crc64.Checksum(covered, crcTable) != binary.BigEndian.Uint64(data[len(covered):]) {
		return meta, nil, ErrChecksum
	}
	return meta, body, nil
}

// object kinds on the wire (decoupled from store.Kind ordering).
const (
	wireString byte = 1
	wireHash   byte = 2
	wireList   byte = 3
	wireSet    byte = 4
	wireZSet   byte = 5
	wireStream byte = 6
	// wireTombstone marks a key deleted since the parent snapshot; it
	// carries no payload and only appears in delta bodies.
	wireTombstone byte = 7
)

// appendObject appends key's record to a body: the key, its expiration,
// the wire kind, then the value — or, for no object, a tombstone.
func appendObject(b []byte, key string, obj store.Object, expireAt int64) []byte {
	b = appendString(b, key)
	if !obj.Exists() {
		b = binary.BigEndian.AppendUint64(b, 0) // a deletion: no expiry, no payload
		return append(b, wireTombstone)
	}
	b = binary.BigEndian.AppendUint64(b, uint64(expireAt))
	switch obj.Kind() {
	case store.KindString:
		b = appendString(append(b, wireString), obj.Str())
	case store.KindHash:
		b = binary.BigEndian.AppendUint32(append(b, wireHash), uint32(len(obj.Hash())))
		for f, v := range obj.Hash() {
			b = appendString(appendString(b, f), v)
		}
	case store.KindList:
		b = binary.BigEndian.AppendUint32(append(b, wireList), uint32(obj.List().Len()))
		obj.List().Walk(func(v []byte) bool {
			b = appendString(b, v)
			return true
		})
	case store.KindSet:
		b = binary.BigEndian.AppendUint32(append(b, wireSet), uint32(len(obj.Set())))
		for m := range obj.Set() {
			b = appendString(b, m)
		}
	case store.KindZSet:
		b = binary.BigEndian.AppendUint32(append(b, wireZSet), uint32(obj.ZSet().Len()))
		for _, en := range obj.ZSet().Range(0, obj.ZSet().Len()-1) {
			b = binary.BigEndian.AppendUint64(appendString(b, en.Member), math.Float64bits(en.Score))
		}
	case store.KindStream:
		b = binary.BigEndian.AppendUint32(append(b, wireStream), uint32(obj.Stream().Len()))
		obj.Stream().Walk(func(en store.StreamEntry) bool {
			b = binary.BigEndian.AppendUint64(b, en.ID.Ms)
			b = binary.BigEndian.AppendUint64(b, en.ID.Seq)
			b = binary.BigEndian.AppendUint32(b, uint32(len(en.Fields)))
			for _, f := range en.Fields {
				b = appendString(b, f)
			}
			return true
		})
	}
	return b
}

// decodeObject applies one record to db. A string's key and value are
// copied once, into the buffer SetString stores; only an aggregate's key
// is a string of its own.
func decodeObject(r *cursor, db *store.DB) error {
	k, err := r.lenPrefixed()
	if err != nil {
		return err
	}
	exp, err := r.u64()
	if err != nil {
		return err
	}
	expireAt := int64(exp)
	kind, err := r.take(1)
	if err != nil {
		return err
	}
	var key string
	var obj store.Object
	switch kind[0] {
	case wireTombstone:
		db.Delete(string(k), timeZero())
		return nil
	case wireString:
		v, err := r.lenPrefixed()
		if err != nil {
			return err
		}
		key = db.SetString(string(k), v)
	case wireHash:
		n, err := r.count()
		if err != nil {
			return err
		}
		obj = store.New(store.KindHash)
		for i := 0; i < n; i++ {
			f, err := r.str()
			if err != nil {
				return err
			}
			if obj.Hash()[f], err = r.bytes(); err != nil {
				return err
			}
		}
	case wireList:
		n, err := r.count()
		if err != nil {
			return err
		}
		obj = store.New(store.KindList)
		for i := 0; i < n; i++ {
			v, err := r.bytes()
			if err != nil {
				return err
			}
			obj.List().PushBack(v)
		}
	case wireSet:
		n, err := r.count()
		if err != nil {
			return err
		}
		obj = store.New(store.KindSet)
		for i := 0; i < n; i++ {
			m, err := r.str()
			if err != nil {
				return err
			}
			obj.Set()[m] = struct{}{}
		}
	case wireZSet:
		n, err := r.count()
		if err != nil {
			return err
		}
		obj = store.New(store.KindZSet)
		for i := 0; i < n; i++ {
			m, err := r.str()
			if err != nil {
				return err
			}
			bits, err := r.u64()
			if err != nil {
				return err
			}
			obj.ZSet().Add(m, math.Float64frombits(bits))
		}
	case wireStream:
		n, err := r.count()
		if err != nil {
			return err
		}
		obj = store.New(store.KindStream)
		for i := 0; i < n; i++ {
			var id store.StreamID
			if id.Ms, err = r.u64(); err != nil {
				return err
			}
			if id.Seq, err = r.u64(); err != nil {
				return err
			}
			nf, err := r.count()
			if err != nil {
				return err
			}
			fields := make([][]byte, nf)
			for j := range fields {
				if fields[j], err = r.bytes(); err != nil {
					return err
				}
			}
			if _, err := obj.Stream().Add(id, false, 0, fields); err != nil {
				return fmt.Errorf("%w: out-of-order stream entry: %v", ErrBadSnapshot, err)
			}
		}
	default:
		return fmt.Errorf("%w: unknown object kind %d", ErrBadSnapshot, kind[0])
	}
	if obj.Exists() {
		key = string(k)
		db.Set(key, obj)
	}
	if expireAt > 0 {
		db.Expire(key, expireAt, timeZero())
	}
	return nil
}

// appendString appends a length-prefixed string or byte string.
func appendString[T ~string | ~[]byte](b []byte, s T) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
}

// cursor reads encoded bytes front to back. Every length it meets is
// checked against the bytes left before anything is allocated for it, and
// each string or value is copied out once, into its final allocation.
type cursor struct{ b []byte }

// take returns the next n bytes, still part of the encoded data.
func (c *cursor) take(n uint32) ([]byte, error) {
	if uint64(n) > uint64(len(c.b)) {
		return nil, fmt.Errorf("%w: %d bytes wanted, %d left", ErrBadSnapshot, n, len(c.b))
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b, nil
}

func (c *cursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (c *cursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// count reads an element count; every counted element occupies at least
// one byte of what remains.
func (c *cursor) count() (int, error) {
	n, err := c.u32()
	if err == nil && uint64(n) > uint64(len(c.b)) {
		err = fmt.Errorf("%w: count %d exceeds the %d bytes left", ErrBadSnapshot, n, len(c.b))
	}
	return int(n), err
}

// lenPrefixed returns the next length-prefixed run of bytes, uncopied.
func (c *cursor) lenPrefixed() ([]byte, error) {
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	return c.take(n)
}

func (c *cursor) str() (string, error) {
	b, err := c.lenPrefixed()
	return string(b), err
}

func (c *cursor) bytes() ([]byte, error) {
	b, err := c.lenPrefixed()
	if err != nil {
		return nil, err
	}
	return append(make([]byte, 0, len(b)), b...), nil
}
