package snapshot

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"memorydb/internal/s3"
	"memorydb/internal/store"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// Manager names, stores, and retrieves snapshots in S3. Keys are
// "<prefix>/<shardID>/<logPos padded>" so the lexically greatest key for a
// shard is also the freshest snapshot.
type Manager struct {
	store  *s3.Store
	prefix string
	// torn counts corrupt/truncated snapshot versions skipped by
	// Resolve across all shards.
	torn atomic.Int64
	// health holds each shard's builder health block by shard ID.
	health sync.Map
	// Flight is where the snapshot pipeline's alarms land: an EvAlarm
	// for a quarantined chain link or a snapshot that failed its restore
	// rehearsal, an EvBuilderLag for a builder that fell behind the trim
	// horizon. NewManager gives it a ring of its own; a server hands it
	// the node's, so DEBUG FLIGHT DUMP shows them.
	Flight *trace.Flight
}

// NewManager returns a manager writing under prefix in st. Every request
// is made once: a failed one returns its error (s3.ErrUnavailable during
// an outage), and the caller's own loop is its retry — the builder's next
// pass, a node's role timer.
func NewManager(st *s3.Store, prefix string) *Manager {
	if prefix == "" {
		prefix = "snapshots"
	}
	return &Manager{store: st, prefix: prefix, Flight: trace.NewFlight("snapshots", 0)}
}

// Health returns the health block of shardID's builder: a shard's nodes
// read its lag, delta and compaction counts from here, and no other
// shard's builder writes them.
func (m *Manager) Health(shardID string) *BuilderHealth {
	if h, ok := m.health.Load(shardID); ok {
		return h.(*BuilderHealth)
	}
	h, _ := m.health.LoadOrStore(shardID, new(BuilderHealth))
	return h.(*BuilderHealth)
}

// TornDetected returns how many corrupt or torn snapshot versions this
// manager has skipped during restores.
func (m *Manager) TornDetected() int64 { return m.torn.Load() }

func (m *Manager) key(shardID string, pos txlog.EntryID) string {
	return fmt.Sprintf("%s/%s/%020d", m.prefix, shardID, pos.Seq)
}

// SaveRaw uploads pre-serialized snapshot bytes. The store keeps data as
// it is, so the caller hands it over and must not write to it again.
func (m *Manager) SaveRaw(shardID string, pos txlog.EntryID, data []byte) error {
	return m.store.Put(m.key(shardID, pos), data)
}

// Chain is a resolved restore chain: the full snapshot at its base, zero
// or more deltas, and the tip whose LogPos restore replays from, with
// the keyspace they materialize.
type Chain struct {
	// DB is the base with every delta layered on in order.
	DB   *store.DB
	Tip  Meta
	Base Meta
	// Depth is the number of deltas layered on the base.
	Depth int
	// Skipped counts the newer, unusable tips resolution passed over
	// (damaged files are also accumulated in TornDetected).
	Skipped int
}

// MaxChainDepth bounds chain resolution: a chain longer than this (the
// builder compacts far earlier) indicates a corrupted parent link loop
// and is treated as damage, not followed forever.
const MaxChainDepth = 64

// errChainDamaged marks a candidate tip whose chain cannot be completed
// (torn/corrupt/missing link); resolution falls back to an older tip.
var errChainDamaged = errors.New("snapshot: damaged chain link")

// Resolve is the one way snapshot bytes become a keyspace. It walks the
// shard's versions newest → oldest and returns the first *restorable
// chain*: a full snapshot for a self-contained version, or full+deltas
// layered in order for an incremental tip. A version whose chain is
// damaged — a link truncated by a torn write, silently corrupted at
// rest, or missing — fails the §7.2.1 checksum gates and is skipped,
// falling back to the next-older tip; damaged *parent* links are
// quarantined (removed + alarmed) so no later restore retries a chain
// through them, while a damaged candidate tip is left in place so every
// recovering node counts it independently. Exhausting every version
// falls back to pure log replay (ok=false, Skipped still set), never a
// hard restore failure. Only genuine storage errors abort the walk: a
// restore must not silently time-travel past a snapshot that is merely
// unreachable right now.
//
// With newestOnly set there is no falling back: verification must judge
// the snapshot just produced, not whatever older survivor a restore
// would settle for. Damage to the newest chain fails the call, and the
// returned Tip.LogPos names the version judged.
func (m *Manager) Resolve(shardID string, newestOnly bool) (Chain, bool, error) {
	keys, err := m.store.List(m.prefix + "/" + shardID + "/")
	if err != nil {
		return Chain{}, false, err
	}
	skipped := 0
	for i := len(keys) - 1; i >= 0; i-- {
		seq, ok := seqOfKey(keys[i])
		if !ok {
			continue
		}
		tip := txlog.EntryID{Seq: seq}
		chain, found, err := m.loadChain(shardID, tip)
		if err == nil && found {
			chain.Skipped = skipped
			return chain, true, nil
		}
		if err != nil && !errors.Is(err, errChainDamaged) {
			return Chain{Skipped: skipped}, false, err
		}
		if newestOnly {
			return Chain{Tip: Meta{LogPos: tip}}, false, err
		}
		if err != nil {
			skipped++
		}
		// else: the tip vanished between List and Get (quarantine or trim
		// races are benign) — not even a skip.
	}
	return Chain{Skipped: skipped}, false, nil
}

// loadChain fetches and checksum-verifies the chain ending at tip, then
// layers its bodies base → tip into a fresh keyspace. A damaged *parent*
// link (bad CRC, malformed frame, implausible parent pointer, a body that
// does not decode) is quarantined via the Remove/alarm path — every delta
// above it is already unrestorable, so no later restore should retry it.
// A damaged candidate *tip* is only skipped, not removed: every resolver
// (each recovering node) must see and count it independently, exactly
// like the flat-version fallback always has. A link missing from the
// store fails the walk without quarantining (the file is already gone).
// found=false with a nil error means the tip itself disappeared between
// List and Get. Genuine storage errors are returned verbatim.
func (m *Manager) loadChain(shardID string, tip txlog.EntryID) (Chain, bool, error) {
	type link struct {
		meta  Meta
		index []extent // the base's; nil for a delta
		body  []byte   // verified, still encoded
	}
	var down []link // tip → base
	for pos := tip; ; {
		if len(down) > MaxChainDepth {
			m.torn.Add(1)
			m.quarantine(shardID, down[len(down)-1].meta.LogPos, fmt.Sprintf("chain deeper than %d links", MaxChainDepth))
			return Chain{}, false, errChainDamaged
		}
		data, err := m.store.Get(m.key(shardID, pos))
		if errors.Is(err, s3.ErrNoSuchKey) {
			if len(down) == 0 {
				return Chain{}, false, nil // the tip itself vanished
			}
			// A parent link was quarantined or lost: every delta above it
			// is unrestorable from this tip.
			return Chain{}, false, errChainDamaged
		}
		if err != nil {
			return Chain{}, false, err
		}
		meta, index, body, err := readFile(data)
		if errors.Is(err, ErrBadSnapshot) || errors.Is(err, ErrChecksum) {
			m.torn.Add(1)
			if len(down) > 0 {
				m.quarantine(shardID, pos, fmt.Sprintf("checksum/framing: %v", err))
			}
			return Chain{}, false, errChainDamaged
		}
		if err != nil {
			return Chain{}, false, err
		}
		down = append(down, link{meta, index, body})
		if meta.Kind == KindFull {
			break
		}
		if meta.BasePos.Seq >= meta.LogPos.Seq {
			// A delta claiming a parent at or above itself is corrupt
			// provenance even with a valid CRC.
			m.torn.Add(1)
			m.quarantine(shardID, pos, fmt.Sprintf("delta base %d not below tip %d",
				meta.BasePos.Seq, meta.LogPos.Seq))
			return Chain{}, false, errChainDamaged
		}
		pos = meta.BasePos
	}
	db := store.NewDB()
	for i := len(down) - 1; i >= 0; i-- {
		if err := applyBody(down[i].body, down[i].index, db); err != nil {
			// The CRC passed but the body does not decode.
			m.torn.Add(1)
			m.quarantine(shardID, down[i].meta.LogPos, fmt.Sprintf("body decode failed: %v", err))
			return Chain{}, false, fmt.Errorf("%w: %v", errChainDamaged, err)
		}
	}
	return Chain{DB: db, Tip: down[0].meta, Base: down[len(down)-1].meta, Depth: len(down) - 1}, true, nil
}

// quarantine removes a damaged chain link and alarms — the same
// Remove/alarm path the builder takes for a snapshot that fails its
// restore rehearsal.
func (m *Manager) quarantine(shardID string, pos txlog.EntryID, reason string) {
	_ = m.Remove(shardID, pos)
	m.Flight.Recordf(trace.EvAlarm, pos.Seq, "snapshot: quarantined %s seq %d: %s", shardID, pos.Seq, reason)
}

// seqOfKey parses the log position encoded in a snapshot key.
func seqOfKey(key string) (uint64, bool) {
	seq, err := strconv.ParseUint(key[strings.LastIndexByte(key, '/')+1:], 10, 64)
	return seq, err == nil
}

// Remove deletes the snapshot version at pos (idempotent): a snapshot
// that fails verification is quarantined this way so no restore can pick
// it up.
func (m *Manager) Remove(shardID string, pos txlog.EntryID) error {
	return m.store.Delete(m.key(shardID, pos))
}

// removeBelow deletes every version of shardID below pos: once a chain
// based at pos has passed its rehearsal and the log is trimmed to pos,
// restoring any of them would need entries that are gone. A failed List
// or Delete leaves the rest for the next verified chain.
func (m *Manager) removeBelow(shardID string, pos txlog.EntryID) {
	keys, err := m.store.List(m.prefix + "/" + shardID + "/")
	if err != nil {
		return
	}
	for _, k := range keys {
		if seq, ok := seqOfKey(k); ok && seq < pos.Seq {
			_ = m.store.Delete(k)
		}
	}
}
