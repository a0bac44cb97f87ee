// Package snapshot implements MemoryDB's point-in-time snapshots: a
// compact, checksummed serialization of the keyspace stamped with the
// transaction log position (and running log checksum) it covers. The
// package also provides the off-box snapshotter (§4.2.2), which trims
// the log behind each snapshot its restore rehearsal verifier (§7.2.1)
// passes.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"memorydb/internal/store"
	"memorydb/internal/txlog"
)

// Magic values framing a snapshot file. MDBSNAP3 carries the chain fields
// (kind, base position, chain depth) the forkless builder needs for
// incremental deltas, a full image's part index, and a CRC-32C. The
// earlier versions are refused: the object store is in memory, so no
// snapshot outlives the binary that wrote it, and compatibility starts to
// bind only once snapshots reach a disk.
var (
	magicHeader = []byte("MDBSNAP3")
	magicFooter = []byte("MDBSNAPE")
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

// crcTable is CRC-32C, which the CPU computes in hardware, as the log's
// record and chain checksums do.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// extent is one store part's share of a full body: how many records it
// holds and how many bytes they take. A full body lists the parts in order,
// so the index of extents locates each part's records without decoding.
type extent struct {
	keys  uint32
	bytes uint64
}

// minRecord is the shortest record a body can hold, a tombstone of the
// empty key: an extent may claim no more records than its bytes can hold,
// so an index cannot make a restore reserve more than its input carries.
const minRecord = 4 + 8 + 1

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
// db, part by part; snapshot writers run on quiescent copies (off-box
// replicas, the builder's private keyspace), so a plain iteration is a
// consistent cut, and a second one visits the same keys in the same order.
// A delta body holds each of keys, or its tombstone. The body is sized
// before any of it is written — a string or a tombstone from its lengths,
// an aggregate by encoding it into a reused scratch buffer — and the sizing
// pass over a full body is also what fills its part index. So the file is
// one allocation of exactly its size, which the caller owns: the builder
// uploads it as it is and S3 keeps it.
func encodeFile(db *store.DB, full bool, keys []string, meta Meta) []byte {
	// each visits the body's records in order, with the part of a full
	// body's record (-1 for a delta's).
	each := func(visit func(part int, key string, obj store.Object, expireAt int64)) {
		for i := 0; full && i < store.NumParts; i++ {
			db.ForEachIn(i, timeZero(), func(key string, obj store.Object, expireAt int64) bool {
				visit(i, key, obj, expireAt)
				return true
			})
		}
		for _, key := range keys {
			obj, _ := db.Peek(key)
			expireAt, _ := db.ExpireAt(key)
			visit(-1, key, obj, expireAt)
		}
	}
	var index []extent
	if full {
		index = make([]extent, store.NumParts)
	}
	var scratch []byte
	bodyLen := 0
	each(func(part int, key string, obj store.Object, expireAt int64) {
		n := 4 + len(key) + 8 + 1
		switch obj.Kind() {
		case store.KindNone:
		case store.KindString:
			n += 4 + len(obj.Str())
		default:
			scratch = appendObject(scratch[:0], key, obj, expireAt)
			n = len(scratch)
		}
		bodyLen += n
		if part >= 0 {
			index[part].keys++
			index[part].bytes += uint64(n)
		}
	})
	return frame(meta, index, bodyLen, func(b []byte) []byte {
		each(func(_ int, key string, obj store.Object, expireAt int64) {
			b = appendObject(b, key, obj, expireAt)
		})
		return b
	})
}

// frame lays out a snapshot file around the bodyLen bytes body appends:
// the MDBSNAP3 header, a full image's part index, the body, and a
// whole-file CRC-32C. Everything before the stored sum — header, meta,
// index, body length, and body — is covered, so a flipped byte anywhere in
// the file (not just the body; a corrupted LogPos, BasePos or LogChecksum
// would silently poison the restore rehearsal or snap the chain) is
// detected before a restore is attempted.
func frame(meta Meta, index []extent, bodyLen int, body func([]byte) []byte) []byte {
	const fixed = 4 + 8 + 8 + 1 + 8 + 4 + 8 // version … body length
	indexLen := 0
	if meta.Kind == KindFull {
		indexLen = 4 + 12*len(index)
	}
	b := make([]byte, 0, len(magicHeader)+4+len(meta.ShardID)+fixed+indexLen+bodyLen+4+len(magicFooter))
	b = append(b, magicHeader...)
	b = appendString(b, meta.ShardID)
	b = binary.BigEndian.AppendUint32(b, meta.EngineVersion)
	b = binary.BigEndian.AppendUint64(b, meta.LogPos.Seq)
	b = binary.BigEndian.AppendUint64(b, meta.LogChecksum)
	b = append(b, uint8(meta.Kind))
	b = binary.BigEndian.AppendUint64(b, meta.BasePos.Seq)
	b = binary.BigEndian.AppendUint32(b, meta.ChainDepth)
	if meta.Kind == KindFull {
		b = binary.BigEndian.AppendUint32(b, uint32(len(index)))
		for _, x := range index {
			b = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(b, x.keys), x.bytes)
		}
	}
	b = binary.BigEndian.AppendUint64(b, uint64(bodyLen))
	b = body(b)
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
	return append(b, magicFooter...)
}

// applyBody decodes a verified body's records into db. A body with an
// index is a full image: its parts are decoded in parallel (restoreFull).
func applyBody(body []byte, index []extent, db *store.DB) error {
	if index != nil {
		return restoreFull(body, index, db)
	}
	_, err := decodeRecords(body, -1, db)
	return err
}

// decodeRecords decodes records into db until body is consumed, and
// returns how many it decoded. With part >= 0 every key must be one of
// that store part's.
func decodeRecords(body []byte, part int, db *store.DB) (int, error) {
	rd := &cursor{body}
	n := 0
	for ; len(rd.b) > 0; n++ {
		if err := decodeObject(rd, part, db); err != nil {
			return n, err
		}
	}
	return n, nil
}

// restoreFull decodes a full body into db. Each of db's empty parts is
// first sized from the index, so a restore into a new keyspace grows no
// table. Then up to GOMAXPROCS goroutines decode an equal run of parts
// each — keys hash evenly over the parts — under the store's rule: a part
// has one owner. A part's records must be
// its own keys, and as many as the index says.
func restoreFull(body []byte, index []extent, db *store.DB) error {
	offs := make([]int, len(index)+1)
	for i, x := range index {
		db.Reserve(i, int(x.keys))
		offs[i+1] = offs[i] + int(x.bytes)
	}
	workers := min(runtime.GOMAXPROCS(0), len(index))
	decode := func(w int) error {
		for i := w * len(index) / workers; i < (w+1)*len(index)/workers; i++ {
			n, err := decodeRecords(body[offs[i]:offs[i+1]], i, db)
			if err == nil && n != int(index[i].keys) {
				err = fmt.Errorf("%w: part %d holds %d records, its index says %d", ErrBadSnapshot, i, n, index[i].keys)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = decode(w)
		}(w)
	}
	errs[0] = decode(0)
	wg.Wait()
	return errors.Join(errs...)
}

// readFile verifies a snapshot file's framing and whole-file checksum and
// returns its meta, a full image's part index, and the still-encoded body
// (a subslice of data). Chain resolution uses this to validate and order
// every link before applying any of them. Every length it reads is checked
// against the bytes actually present, so a hostile header cannot make it —
// or the restore its index sizes — allocate.
func readFile(data []byte) (Meta, []extent, []byte, error) {
	rd := &cursor{data}
	var meta Meta
	bad := func(format string, args ...any) (Meta, []extent, []byte, error) {
		return meta, nil, nil, fmt.Errorf("%w: "+format, append([]any{ErrBadSnapshot}, args...)...)
	}
	hdr, err := rd.take(uint32(len(magicHeader)))
	if err != nil {
		return meta, nil, nil, err
	}
	if !bytes.Equal(hdr, magicHeader) {
		if bytes.HasPrefix(hdr, magicHeader[:7]) {
			return bad("unsupported version %q", hdr)
		}
		return bad("bad magic")
	}
	if meta.ShardID, err = rd.str(); err != nil {
		return meta, nil, nil, err
	}
	f, err := rd.take(4 + 8 + 8 + 1 + 8 + 4)
	if err != nil {
		return meta, nil, nil, err
	}
	meta.EngineVersion = binary.BigEndian.Uint32(f)
	meta.LogPos.Seq = binary.BigEndian.Uint64(f[4:])
	meta.LogChecksum = binary.BigEndian.Uint64(f[12:])
	if f[20] > uint8(KindDelta) {
		return bad("unknown snapshot kind %d", f[20])
	}
	meta.Kind = Kind(f[20])
	meta.BasePos.Seq = binary.BigEndian.Uint64(f[21:])
	meta.ChainDepth = binary.BigEndian.Uint32(f[29:])
	var raw []byte
	if meta.Kind == KindFull {
		parts, err := rd.u32()
		if err != nil {
			return meta, nil, nil, err
		}
		if parts != store.NumParts {
			return bad("part index of %d parts, want %d", parts, store.NumParts)
		}
		if raw, err = rd.take(12 * store.NumParts); err != nil {
			return meta, nil, nil, err
		}
	}
	bodyLen, err := rd.u64()
	if err != nil {
		return meta, nil, nil, err
	}
	trailer := 4 + len(magicFooter) // stored sum + footer
	if len(rd.b) < trailer || bodyLen != uint64(len(rd.b)-trailer) {
		return bad("body length %d does not fit the %d bytes present", bodyLen, len(rd.b))
	}
	covered := data[:len(data)-trailer]
	body := covered[len(covered)-int(bodyLen):]
	if !bytes.Equal(data[len(data)-len(magicFooter):], magicFooter) {
		return bad("bad footer")
	}
	if crc32.Checksum(covered, crcTable) != binary.BigEndian.Uint32(data[len(covered):]) {
		return meta, nil, nil, ErrChecksum
	}
	if raw == nil {
		return meta, nil, body, nil
	}
	index := make([]extent, store.NumParts)
	left := bodyLen
	for i := range index {
		x := extent{keys: binary.BigEndian.Uint32(raw[12*i:]), bytes: binary.BigEndian.Uint64(raw[12*i+4:])}
		if x.bytes > left {
			return bad("part %d claims %d bytes, %d left", i, x.bytes, left)
		}
		if uint64(x.keys)*minRecord > x.bytes {
			return bad("part %d claims %d records in %d bytes", i, x.keys, x.bytes)
		}
		left -= x.bytes
		index[i] = x
	}
	if left != 0 {
		return bad("part index covers %d of the body's %d bytes", bodyLen-left, bodyLen)
	}
	return meta, index, body, nil
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
		b = binary.BigEndian.AppendUint32(append(b, wireHash), uint32(obj.Hash().Len()))
		obj.Hash().Walk(func(f string, v []byte) { b = appendString(appendString(b, f), v) })
	case store.KindList:
		b = binary.BigEndian.AppendUint32(append(b, wireList), uint32(obj.List().Len()))
		obj.List().Walk(func(v []byte) bool {
			b = appendString(b, v)
			return true
		})
	case store.KindSet:
		b = binary.BigEndian.AppendUint32(append(b, wireSet), uint32(obj.Set().Len()))
		obj.Set().Walk(func(m string) { b = appendString(b, m) })
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
// is a string of its own. With part >= 0 the key must be that part's: a
// restore worker writes only the parts it owns.
func decodeObject(r *cursor, part int, db *store.DB) error {
	k, err := r.lenPrefixed()
	if err != nil {
		return err
	}
	if part >= 0 && store.PartOfKey(k) != part {
		return fmt.Errorf("%w: key %q indexed under part %d belongs to part %d", ErrBadSnapshot, k, part, store.PartOfKey(k))
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
			v, err := r.bytes()
			if err != nil {
				return err
			}
			obj.Hash().Put(f, v)
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
			obj.Set().Add(m)
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
