package snapshot

import (
	"io"

	"memorydb/internal/store"
	"memorydb/internal/trace"
)

// alarms returns the details of the alarms on f — EvAlarm and
// EvBuilderLag events — oldest first.
func alarms(f *trace.Flight) []string {
	var out []string
	for _, e := range f.Events() {
		if e.Kind == trace.EvAlarm || e.Kind == trace.EvBuilderLag {
			out = append(out, e.Detail)
		}
	}
	return out
}

// Save serializes db+meta and uploads it.
func (m *Manager) Save(db *store.DB, meta Meta) error {
	return m.store.Put(m.key(meta.ShardID, meta.LogPos), encodeFile(db, true, nil, meta))
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

// WriteDelta serializes an incremental snapshot: for each key in keys,
// the current object in db (replacing whatever the parent chain held) or
// a tombstone if the key no longer exists. meta must carry Kind=KindDelta
// and the parent link in BasePos.
func WriteDelta(w io.Writer, db *store.DB, keys []string, meta Meta) error {
	_, err := w.Write(encodeFile(db, false, keys, meta))
	return err
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
	meta, index, body, err := readFile(data)
	if err != nil {
		return meta, err
	}
	return meta, applyBody(body, index, db)
}
