package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/engine"
	"memorydb/internal/netsim"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/store"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// handLog writes a transaction log by hand — no primary — so a test can
// place an entry no well-behaved writer would produce. It mirrors the
// writes into a model keyspace and chains the running checksum exactly
// as a primary does.
type handLog struct {
	t       *testing.T
	log     *txlog.Log
	after   txlog.EntryID
	model   *engine.Engine
	running uint64
}

func newHandLog(t *testing.T) *handLog {
	t.Helper()
	log, err := testService(t, netsim.Zero{}).CreateLog("shard-1")
	if err != nil {
		t.Fatal(err)
	}
	return &handLog{t: t, log: log, model: engine.New(clock.NewReal())}
}

func (h *handLog) append(e txlog.Entry) {
	h.t.Helper()
	id, err := h.log.Append(context.Background(), h.after, e)
	if err != nil {
		h.t.Fatal(err)
	}
	h.after = id
}

// set appends one SET stamped with the given engine version.
func (h *handLog) set(version uint32, key, val string) {
	h.t.Helper()
	res := h.model.Exec([][]byte{[]byte("SET"), []byte(key), []byte(val)})
	payload := res.Effects
	h.running = txlog.ChainChecksum(h.running, payload)
	h.append(txlog.Entry{Type: txlog.EntryData, EngineVersion: version, Payload: payload})
}

// checksum appends a checksum entry recording the running value plus skew.
func (h *handLog) checksum(skew uint64) {
	h.t.Helper()
	h.append(txlog.Entry{Type: txlog.EntryChecksum, Payload: txlog.EncodeChecksumPayload(h.running + skew)})
}

// keyspace renders every string key of db.
func keyspace(db *store.DB) map[string]string {
	eng := engine.New(nil)
	eng.ResetDB(db)
	out := make(map[string]string)
	for _, k := range db.Keys("*", time.Now()) {
		out[k] = eng.Exec([][]byte{[]byte("GET"), []byte(k)}).Reply.Text()
	}
	return out
}

// workloopNode builds an engine-version-2 node with its workloop running
// but no role loop: the test goroutine stands in as the single apply
// driver, so it sees the error each entry produces.
func workloopNode(t *testing.T, log *txlog.Log) *Node {
	t.Helper()
	n, err := NewNode(Config{
		NodeID: "old-engine", ShardID: log.ShardID(), Log: log, EngineVersion: 2,
		Lease: 120 * time.Millisecond, Backoff: 160 * time.Millisecond,
		RenewEvery: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.wg.Add(1)
	go n.workloop()
	t.Cleanup(n.Stop)
	return n
}

// tail steps n through every entry above its applied position, as
// runReplica does, stopping at the first error.
func tail(n *Node) error {
	rd := n.cfg.Log.NewReader(n.applied)
	for {
		e, ok, err := rd.TryNext()
		if err != nil || !ok {
			return err
		}
		if err := n.applyEntry(e); err != nil {
			return err
		}
	}
}

// TestReplayInvariantAcrossConsumers holds every consumer of the log to
// the same rule. Each is handed a clean prefix and then a suffix whose
// first entry is either fine, stamped by a newer engine, or a checksum
// that disagrees with the payloads before it; each must report the same
// sentinel and must not have applied the entry after the bad one.
func TestReplayInvariantAcrossConsumers(t *testing.T) {
	prefix := func(h *handLog) {
		for i, k := range []string{"a", "b", "c", "d", "e", "f"} {
			h.set(2, k, "1")
			if i%3 == 2 {
				h.checksum(0)
			}
		}
	}
	scenarios := []struct {
		name   string
		suffix func(h *handLog)
		want   error
	}{
		{"clean", func(h *handLog) { h.set(2, "g", "1"); h.checksum(0); h.set(2, "a", "2") }, nil},
		{"newer-version", func(h *handLog) { h.set(3, "poison", "x"); h.set(2, "after", "y") }, txlog.ErrUpgradeStall},
		{"wrong-checksum", func(h *handLog) { h.checksum(1); h.set(2, "after", "y") }, txlog.ErrChecksumMismatch},
	}
	// A consumer takes the log through prefix, then suffix, and returns the
	// keyspace it ended with (nil: none) and the error the suffix produced.
	consumers := []struct {
		name string
		run  func(t *testing.T, h *handLog, suffix func(*handLog)) (*store.DB, error)
	}{
		{"tailer", func(t *testing.T, h *handLog, suffix func(*handLog)) (*store.DB, error) {
			n := workloopNode(t, h.log)
			if err := n.resync(); err != nil {
				t.Fatalf("resync over the clean prefix: %v", err)
			}
			suffix(h)
			err := tail(n)
			if errors.Is(err, txlog.ErrChecksumMismatch) {
				diverged := false
				for _, ev := range n.FlightRecorder().Events() {
					diverged = diverged || (ev.Kind == trace.EvAlarm && strings.Contains(ev.Detail, "diverged"))
				}
				if !diverged {
					t.Error("tailer checksum mismatch left no flight event")
				}
			}
			return n.liveDB(), err
		}},
		{"resync", func(t *testing.T, h *handLog, suffix func(*handLog)) (*store.DB, error) {
			suffix(h)
			n := workloopNode(t, h.log)
			if err := n.resync(); err != nil {
				return nil, err // a failed restore installs nothing
			}
			// A stall is not a restore failure: the prefix is installed and
			// the replayer restore seeded refuses the entry when tailed.
			err := tail(n)
			return n.liveDB(), err
		}},
		{"builder", func(t *testing.T, h *handLog, suffix func(*handLog)) (*store.DB, error) {
			snaps := snapshot.NewManager(s3.New(), "snaps")
			b := &snapshot.Builder{Manager: snaps, Log: h.log, ShardID: h.log.ShardID(), EngineVersion: 1, DeltaInterval: 1}
			if err := b.Tick(context.Background()); err != nil {
				t.Fatalf("builder over the clean prefix: %v", err)
			}
			suffix(h)
			err := b.Tick(context.Background())
			// What the builder made durable is what counts.
			chain, _, rerr := snaps.Resolve(h.log.ShardID(), false)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if err == nil && chain.Tip.LogPos != h.log.CommittedTail() {
				t.Errorf("builder emitted at %v, tail %v", chain.Tip.LogPos, h.log.CommittedTail())
			}
			return chain.DB, err
		}},
		{"verify", func(t *testing.T, h *handLog, suffix func(*handLog)) (*store.DB, error) {
			snaps := snapshot.NewManager(s3.New(), "snaps")
			b := &snapshot.Builder{Manager: snaps, Log: h.log, ShardID: h.log.ShardID(), EngineVersion: 1}
			if _, err := b.Full(context.Background()); err != nil {
				t.Fatal(err)
			}
			suffix(h)
			// The rehearsal replays into the chain's keyspace.
			chain, err := snapshot.Verify(snaps, h.log.ShardID(), h.log, nil)
			return chain.DB, err
		}},
	}
	for _, sc := range scenarios {
		for _, c := range consumers {
			t.Run(sc.name+"/"+c.name, func(t *testing.T) {
				h := newHandLog(t)
				prefix(h)
				want := keyspace(h.model.DB()) // a bad suffix must leave exactly the prefix
				db, err := c.run(t, h, sc.suffix)
				if !errors.Is(err, sc.want) || (sc.want == nil && err != nil) {
					t.Fatalf("error = %v, want %v", err, sc.want)
				}
				if sc.want == nil {
					want = keyspace(h.model.DB())
				}
				if db == nil {
					return
				}
				got := keyspace(db)
				if len(got) != len(want) {
					t.Fatalf("keyspace = %v, want %v", got, want)
				}
				for k, v := range want {
					if got[k] != v {
						t.Fatalf("keyspace = %v, want %v", got, want)
					}
				}
			})
		}
	}
}
