// Package snapshot implements MemoryDB's point-in-time snapshots: a
// compact, checksummed serialization of the keyspace stamped with the
// transaction log position (and running log checksum) it covers. The
// package also provides the off-box snapshotter (§4.2.2), the restore
// rehearsal verifier (§7.2.1), and the freshness-based scheduler (§4.2.3).
package snapshot

import (
	"bufio"
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

// writeFile frames meta+body with the V2 header and whole-file CRC64.
// Everything before the stored sum — header, meta, body length, and body
// — is covered, so a flipped byte anywhere in the file (not just the
// body; a corrupted LogPos, BasePos or LogChecksum would silently poison
// the restore rehearsal or snap the chain) is detected before a restore
// is attempted.
func writeFile(w io.Writer, meta Meta, body []byte) error {
	bw := bufio.NewWriterSize(w, 256<<10)
	h := crc64.New(crcTable)
	mw := io.MultiWriter(bw, h)
	if _, err := mw.Write(magicHeaderV2); err != nil {
		return err
	}
	if err := writeString(mw, meta.ShardID); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.BigEndian, meta.EngineVersion); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.BigEndian, meta.LogPos.Seq); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.BigEndian, meta.LogChecksum); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.BigEndian, uint8(meta.Kind)); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.BigEndian, meta.BasePos.Seq); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.BigEndian, meta.ChainDepth); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.BigEndian, uint64(len(body))); err != nil {
		return err
	}
	if _, err := mw.Write(body); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.BigEndian, h.Sum64()); err != nil {
		return err
	}
	if _, err := bw.Write(magicFooter); err != nil {
		return err
	}
	return bw.Flush()
}

// Write serializes db and meta to w as a full snapshot body.
func Write(w io.Writer, db *store.DB, meta Meta) error {
	var body bytes.Buffer
	var encodeErr error
	// Snapshot writers run on quiescent copies (off-box replicas, the
	// builder's private keyspace), so a plain iteration is a consistent
	// cut.
	db.ForEach(timeZero(), func(key string, obj *store.Object, expireAt int64) bool {
		if err := encodeObject(&body, key, obj, expireAt); err != nil {
			encodeErr = err
			return false
		}
		return true
	})
	if encodeErr != nil {
		return encodeErr
	}
	return writeFile(w, meta, body.Bytes())
}

// WriteDelta serializes an incremental snapshot: for each key in keys,
// the current object in db (replacing whatever the parent chain held) or
// a tombstone if the key no longer exists. meta must carry Kind=KindDelta
// and the parent link in BasePos.
func WriteDelta(w io.Writer, db *store.DB, keys []string, meta Meta) error {
	var body bytes.Buffer
	for _, key := range keys {
		obj, ok := db.Peek(key)
		if !ok {
			if err := encodeTombstone(&body, key); err != nil {
				return err
			}
			continue
		}
		expireAt, _ := db.ExpireAt(key)
		if err := encodeObject(&body, key, obj, expireAt); err != nil {
			return err
		}
	}
	return writeFile(w, meta, body.Bytes())
}

// Read parses a snapshot, returning a freshly built keyspace and its
// meta. For a delta file the returned DB holds only the changed objects
// (tombstones deleting from an empty keyspace are no-ops); chain restores
// use ReadInto to layer deltas onto their base.
func Read(r io.Reader) (*store.DB, Meta, error) {
	db := store.NewDB()
	meta, err := ReadInto(r, db)
	if err != nil {
		return nil, meta, err
	}
	return db, meta, nil
}

// ReadInto parses a snapshot and applies its records onto db: objects
// replace existing keys, tombstones delete them — exactly the layering a
// full+delta chain restore needs. The whole-file checksum (header + meta
// + body) is verified before any record is applied, so a torn or
// bit-rotted file never half-applies.
func ReadInto(r io.Reader, db *store.DB) (Meta, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Meta{}, err
	}
	meta, body, err := readFile(data)
	if err != nil {
		return meta, err
	}
	return meta, applyBody(body, db)
}

// applyBody decodes a verified body's records into db.
func applyBody(body []byte, db *store.DB) error {
	rd := bytes.NewReader(body)
	for rd.Len() > 0 {
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
	rd := bytes.NewReader(data)
	var meta Meta
	hdr := make([]byte, len(magicHeaderV2))
	if _, err := io.ReadFull(rd, hdr); err != nil {
		return meta, nil, fmt.Errorf("%w: short header: %v", ErrBadSnapshot, err)
	}
	v2 := bytes.Equal(hdr, magicHeaderV2)
	if !v2 && !bytes.Equal(hdr, magicHeaderV1) {
		return meta, nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	shardID, err := readString(rd)
	if err != nil {
		return meta, nil, err
	}
	meta.ShardID = shardID
	var kind uint8
	var bodyLen uint64
	fields := []any{&meta.EngineVersion, &meta.LogPos.Seq, &meta.LogChecksum}
	if v2 {
		fields = append(fields, &kind, &meta.BasePos.Seq, &meta.ChainDepth)
	}
	for _, f := range append(fields, &bodyLen) {
		if err := binary.Read(rd, binary.BigEndian, f); err != nil {
			return meta, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
	}
	if kind > uint8(KindDelta) {
		return meta, nil, fmt.Errorf("%w: unknown snapshot kind %d", ErrBadSnapshot, kind)
	}
	meta.Kind = Kind(kind)
	trailer := 8 + len(magicFooter) // stored sum + footer
	if rd.Len() < trailer || bodyLen != uint64(rd.Len()-trailer) {
		return meta, nil, fmt.Errorf("%w: body length %d does not fit the %d bytes present", ErrBadSnapshot, bodyLen, rd.Len())
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

// encodeTombstone writes a deletion record for key (delta bodies only).
func encodeTombstone(w *bytes.Buffer, key string) error {
	if err := writeString(w, key); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, int64(0)); err != nil {
		return err
	}
	w.WriteByte(wireTombstone)
	return nil
}

func encodeObject(w *bytes.Buffer, key string, obj *store.Object, expireAt int64) error {
	if err := writeString(w, key); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, expireAt); err != nil {
		return err
	}
	switch obj.Kind {
	case store.KindString:
		w.WriteByte(wireString)
		return writeBytes(w, obj.Str)
	case store.KindHash:
		w.WriteByte(wireHash)
		if err := writeCount(w, len(obj.Hash)); err != nil {
			return err
		}
		for f, v := range obj.Hash {
			if err := writeString(w, f); err != nil {
				return err
			}
			if err := writeBytes(w, v); err != nil {
				return err
			}
		}
		return nil
	case store.KindList:
		w.WriteByte(wireList)
		if err := writeCount(w, obj.List.Len()); err != nil {
			return err
		}
		var walkErr error
		obj.List.Walk(func(v []byte) bool {
			walkErr = writeBytes(w, v)
			return walkErr == nil
		})
		return walkErr
	case store.KindSet:
		w.WriteByte(wireSet)
		if err := writeCount(w, len(obj.Set)); err != nil {
			return err
		}
		for m := range obj.Set {
			if err := writeString(w, m); err != nil {
				return err
			}
		}
		return nil
	case store.KindZSet:
		w.WriteByte(wireZSet)
		if err := writeCount(w, obj.ZSet.Len()); err != nil {
			return err
		}
		for _, en := range obj.ZSet.Range(0, obj.ZSet.Len()-1) {
			if err := writeString(w, en.Member); err != nil {
				return err
			}
			if err := binary.Write(w, binary.BigEndian, math.Float64bits(en.Score)); err != nil {
				return err
			}
		}
		return nil
	case store.KindStream:
		w.WriteByte(wireStream)
		if err := writeCount(w, obj.Stream.Len()); err != nil {
			return err
		}
		var walkErr error
		obj.Stream.Walk(func(en store.StreamEntry) bool {
			if err := binary.Write(w, binary.BigEndian, en.ID.Ms); err != nil {
				walkErr = err
				return false
			}
			if err := binary.Write(w, binary.BigEndian, en.ID.Seq); err != nil {
				walkErr = err
				return false
			}
			if err := writeCount(w, len(en.Fields)); err != nil {
				walkErr = err
				return false
			}
			for _, f := range en.Fields {
				if err := writeBytes(w, f); err != nil {
					walkErr = err
					return false
				}
			}
			return true
		})
		return walkErr
	}
	return fmt.Errorf("snapshot: cannot encode kind %v", obj.Kind)
}

func decodeObject(r *bytes.Reader, db *store.DB) error {
	key, err := readString(r)
	if err != nil {
		return err
	}
	var expireAt int64
	if err := binary.Read(r, binary.BigEndian, &expireAt); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	kind, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if kind == wireTombstone {
		db.Delete(key, timeZero())
		return nil
	}
	obj := &store.Object{}
	switch kind {
	case wireString:
		obj.Kind = store.KindString
		obj.Str, err = readBytesR(r)
		if err != nil {
			return err
		}
	case wireHash:
		obj.Kind = store.KindHash
		n, err := readCount(r)
		if err != nil {
			return err
		}
		obj.Hash = make(map[string][]byte, n)
		for i := 0; i < n; i++ {
			f, err := readString(r)
			if err != nil {
				return err
			}
			v, err := readBytesR(r)
			if err != nil {
				return err
			}
			obj.Hash[f] = v
		}
	case wireList:
		obj.Kind = store.KindList
		n, err := readCount(r)
		if err != nil {
			return err
		}
		obj.List = store.NewList()
		for i := 0; i < n; i++ {
			v, err := readBytesR(r)
			if err != nil {
				return err
			}
			obj.List.PushBack(v)
		}
	case wireSet:
		obj.Kind = store.KindSet
		n, err := readCount(r)
		if err != nil {
			return err
		}
		obj.Set = make(map[string]struct{}, n)
		for i := 0; i < n; i++ {
			m, err := readString(r)
			if err != nil {
				return err
			}
			obj.Set[m] = struct{}{}
		}
	case wireZSet:
		obj.Kind = store.KindZSet
		n, err := readCount(r)
		if err != nil {
			return err
		}
		obj.ZSet = store.NewZSet()
		for i := 0; i < n; i++ {
			m, err := readString(r)
			if err != nil {
				return err
			}
			var bits uint64
			if err := binary.Read(r, binary.BigEndian, &bits); err != nil {
				return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
			}
			obj.ZSet.Add(m, math.Float64frombits(bits))
		}
	case wireStream:
		obj.Kind = store.KindStream
		n, err := readCount(r)
		if err != nil {
			return err
		}
		obj.Stream = store.NewStream()
		for i := 0; i < n; i++ {
			var id store.StreamID
			if err := binary.Read(r, binary.BigEndian, &id.Ms); err != nil {
				return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
			}
			if err := binary.Read(r, binary.BigEndian, &id.Seq); err != nil {
				return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
			}
			nf, err := readCount(r)
			if err != nil {
				return err
			}
			fields := make([][]byte, nf)
			for j := 0; j < nf; j++ {
				fields[j], err = readBytesR(r)
				if err != nil {
					return err
				}
			}
			if _, err := obj.Stream.Add(id, false, 0, fields); err != nil {
				return fmt.Errorf("%w: out-of-order stream entry: %v", ErrBadSnapshot, err)
			}
		}
	default:
		return fmt.Errorf("%w: unknown object kind %d", ErrBadSnapshot, kind)
	}
	db.Set(key, obj)
	if expireAt > 0 {
		db.Expire(key, expireAt, timeZero())
	}
	return nil
}

func writeCount(w *bytes.Buffer, n int) error {
	return binary.Write(w, binary.BigEndian, uint32(n))
}

func readCount(r *bytes.Reader) (int, error) {
	var n uint32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	// Every counted element occupies at least one byte of what remains.
	if int64(n) > int64(r.Len()) {
		return 0, fmt.Errorf("%w: count %d exceeds the %d bytes left", ErrBadSnapshot, n, r.Len())
	}
	return int(n), nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.BigEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func writeBytes(w *bytes.Buffer, b []byte) error {
	if err := binary.Write(w, binary.BigEndian, uint32(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func readString(r *bytes.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if int64(n) > int64(r.Len()) {
		return "", fmt.Errorf("%w: string length %d exceeds the %d bytes left", ErrBadSnapshot, n, r.Len())
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return string(b), nil
}

func readBytesR(r *bytes.Reader) ([]byte, error) {
	s, err := readString(r)
	if err != nil {
		return nil, err
	}
	return []byte(s), nil
}
