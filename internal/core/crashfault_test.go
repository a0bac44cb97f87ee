package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/obs"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/txlog"
)

// TestResyncTrimmedGapFails: when the log has been trimmed past the
// newest usable snapshot, resync must fail with the explicit
// ErrLogTrimmedGap — never replay across the gap, which would silently
// drop the committed entries that lived in it.
func TestResyncTrimmedGapFails(t *testing.T) {
	// Own service with a tiny segment threshold: Trim only drops whole
	// sealed segments, so the default threshold would never produce the
	// gap this test needs.
	svc := txlog.NewService(txlog.Config{
		Clock:          clock.NewReal(),
		CommitLatency:  netsim.Zero{},
		SegmentEntries: 4,
	})
	log, _ := svc.CreateLog("shard-trim")
	snaps := snapshot.NewManager(s3.New(), "snaps")
	p := testNode(t, "node-a", log, snaps)
	waitRole(t, p, election.RolePrimary, 2*time.Second)

	for i := 0; i < 8; i++ {
		mustDo(t, p, "SET", "pre", "v")
	}
	cp := &snapshot.Builder{Manager: snaps, Log: log, ShardID: log.ShardID(), EngineVersion: 1}
	meta, err := cp.Full(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mustDo(t, p, "SET", "post", "v")
	}
	// Trim past the snapshot position: the suffix the snapshot needs is
	// gone. (Whole-segment trim lands on the last sealed boundary at or
	// below the tail — with 4-entry segments that is well past the
	// snapshot.)
	log.Trim(log.CommittedTail())
	if log.TrimBase().Seq <= meta.LogPos.Seq {
		t.Fatalf("test setup: trim base %v did not pass the snapshot position %v",
			log.TrimBase(), meta.LogPos)
	}

	fresh, err := NewNode(Config{
		NodeID: "node-fresh", ShardID: log.ShardID(), Log: log,
		Lease: 120 * time.Millisecond, Backoff: 160 * time.Millisecond,
		RenewEvery: 30 * time.Millisecond,
		Snapshots:  snaps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.resync(); !errors.Is(err, ErrLogTrimmedGap) {
		t.Fatalf("resync across trimmed gap: err = %v, want ErrLogTrimmedGap", err)
	}

	// Without any snapshot store the same trim is equally fatal: a cold
	// replay from zero hits the trim point immediately.
	bare, err := NewNode(Config{
		NodeID: "node-bare", ShardID: log.ShardID(), Log: log,
		Lease: 120 * time.Millisecond, Backoff: 160 * time.Millisecond,
		RenewEvery: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.resync(); !errors.Is(err, ErrLogTrimmedGap) {
		t.Fatalf("snapshotless resync across trim: err = %v, want ErrLogTrimmedGap", err)
	}
}

// TestResyncSkipsTornSnapshotAndCounts: a corrupt newest snapshot must
// not block a restore — resync falls back to the older good version and
// records the skip in TornSnapshotsDetected.
func TestResyncSkipsTornSnapshotAndCounts(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-torn")
	st := s3.New()
	snaps := snapshot.NewManager(st, "snaps")
	p := testNode(t, "node-a", log, snaps)
	waitRole(t, p, election.RolePrimary, 2*time.Second)

	mustDo(t, p, "SET", "good", "1")
	cp := &snapshot.Builder{Manager: snaps, Log: log, ShardID: log.ShardID(), EngineVersion: 1}
	if _, err := cp.Full(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustDo(t, p, "SET", "later", "2")
	faults := faultpoint.New(3)
	faults.Arm(faultpoint.SiteSnapUpload, faultpoint.Corrupt, 0)
	cpBad := &snapshot.Builder{Manager: snaps, Log: log, ShardID: log.ShardID(), EngineVersion: 1, Faults: faults}
	if _, err := cpBad.Full(context.Background()); err != nil {
		t.Fatal(err)
	}

	fresh := testNode(t, "node-fresh", log, snaps)
	// The bootstrap resync runs on the node's workloop, after Start
	// returns; wait for it to have walked past the damaged version.
	waitFor(t, "the restore to skip the torn snapshot", func() bool { return fresh.Stats().TornSnapshotsDetected.Load() >= 1 })
	waitRole(t, fresh, election.RoleReplica, 2*time.Second)
	v, _, err := fresh.DoRead(context.Background(), [][]byte{[]byte("GET"), []byte("later")}, ReadOpts{})
	if err != nil || v.Text() != "2" {
		t.Fatalf("replica read after torn-snapshot fallback: %q %v", v.Text(), err)
	}
}

// TestFreezeThawGate covers the crash primitive itself: a frozen node
// parks client tasks at the gate (no replies, like a dead process), a
// stopped-while-frozen node fails them with ErrStopped, and a thawed
// node resumes service.
func TestFreezeThawGate(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-freeze")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)
	mustDo(t, n, "SET", "k", "v1")

	n.Freeze()
	if !n.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	_, err := n.Do(ctx, [][]byte{[]byte("GET"), []byte("k")})
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("command against frozen node: err = %v, want deadline exceeded", err)
	}

	n.Thaw()
	if n.Frozen() {
		t.Fatal("Frozen() true after Thaw")
	}
	// Thawed with time still on the lease (the freeze was shorter than
	// the lease) the node serves again; if the lease lapsed it demotes —
	// either way the node answers instead of hanging.
	ctx, cancel = context.WithTimeout(context.Background(), time.Second)
	_, err = n.Do(ctx, [][]byte{[]byte("GET"), []byte("k")})
	cancel()
	if err != nil {
		t.Fatalf("command against thawed node: %v", err)
	}
}

// TestStatusRacesFreezeThaw: four goroutines freeze and thaw a started
// node while its workloop steps down and campaigns again, so their swaps
// of the published status race the workloop's. A watcher takes Changed,
// then reads the state; whenever a later read differs, the channel it took
// before must be closed once every writer is done. Each writer's last
// write is a thaw, so Frozen ends false.
func TestStatusRacesFreezeThaw(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-status")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	type view struct {
		role    election.Role
		epoch   uint64
		frozen  bool
		stalled bool
	}
	look := func() (<-chan struct{}, view) {
		ch := n.Changed()
		return ch, view{n.Role(), n.Epoch(), n.Frozen(), n.Stalled()}
	}
	var done atomic.Bool
	quiet := make(chan struct{}) // closed once nothing publishes any more
	watched := make(chan error, 1)
	go func() {
		ch, was := look()
		for {
			select {
			case <-quiet:
				watched <- nil
				return
			default:
			}
			next, now := look()
			if now != was {
				select {
				case <-ch:
				case <-quiet:
					select {
					case <-ch:
					default:
						watched <- fmt.Errorf("state went from %+v to %+v, and the Changed channel taken before is open", was, now)
						return
					}
				}
			}
			ch, was = next, now
			runtime.Gosched()
		}
	}()
	var writers sync.WaitGroup
	for range 4 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for !done.Load() {
				n.Freeze()
				runtime.Gosched()
				n.Thaw()
				runtime.Gosched()
			}
		}()
	}
	// Three step-downs, each followed by a new campaign: the workloop
	// publishes a role change and an epoch between the writers' swaps.
	finish := sync.OnceFunc(func() {
		done.Store(true)
		writers.Wait()
		n.Stop()
		close(quiet)
	})
	defer finish()
	promotions := n.Stats().Promotions.Load()
	for i := range int64(3) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		n.StepDown(ctx) // may find the lease already lost
		cancel()
		if !waitChanged(n, 10*time.Second, func() bool { return n.Stats().Promotions.Load() > promotions+i }) {
			t.Fatalf("no campaign won after step-down %d", i+1)
		}
	}
	finish()
	if err := <-watched; err != nil {
		t.Fatal(err)
	}
	if n.Frozen() {
		t.Fatal("Frozen() true after every writer's last Thaw")
	}
}

// TestCheckpointErrorIsTransient: an Error decision at a fault site
// surfaces as txlog.ErrUnavailable — the transient taxonomy — so the
// retry discipline, not demotion, absorbs it.
func TestCheckpointErrorIsTransient(t *testing.T) {
	svc := testService(t, netsim.Zero{})
	log, _ := svc.CreateLog("shard-ckpt")
	faults := faultpoint.New(1)
	n, err := NewNode(Config{
		NodeID: "node-a", ShardID: log.ShardID(), Log: log,
		Lease: 120 * time.Millisecond, Backoff: 160 * time.Millisecond,
		RenewEvery: 30 * time.Millisecond,
		Faults:     faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	// One transient error on the next append: the lease-bounded retry
	// loop must absorb it and the write must still acknowledge.
	faults.Arm(faultpoint.SiteAppendPre, faultpoint.Error, 0)
	mustDo(t, n, "SET", "k", "v1")
	if faults.Fired(faultpoint.SiteAppendPre, faultpoint.Error) != 1 {
		t.Fatal("armed transient error never fired")
	}
	if n.Stats().AppendsRetried.Load() == 0 {
		t.Fatal("transient checkpoint error was not retried")
	}
	if v := mustDo(t, n, "GET", "k"); v.Text() != "v1" {
		t.Fatalf("GET = %q after retried append, want v1", v.Text())
	}
}

// A primary that crashes between quorum and release — its workloop frozen
// at core.flush.post while answering for a committed entry, with writes in
// flight — stalls its own acknowledgements and nothing else: the log keeps
// committing for everyone, so the other node on it wins the election once
// the backoff has run and acknowledges a write, and the frozen node spawns
// nothing meanwhile. A completion run in the log's commit round would park
// the log with the node.
func TestFrozenPrimaryDoesNotHoldTheLog(t *testing.T) {
	svc := testService(t, netsim.Fixed(2*time.Millisecond))
	log, _ := svc.CreateLog("shard-frozen")
	faults := faultpoint.New(1)
	a, err := NewNode(Config{
		NodeID: "node-a", ShardID: log.ShardID(), Log: log,
		Lease: 120 * time.Millisecond, Backoff: 160 * time.Millisecond,
		RenewEvery: 30 * time.Millisecond,
		Faults:     faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	t.Cleanup(a.Stop)
	waitRole(t, a, election.RolePrimary, 2*time.Second)
	mustDo(t, a, "SET", "k", "before")
	b := testNode(t, "node-b", log, nil)
	waitApplied(t, b, log.CommittedTail().Seq, 5*time.Second)

	faults.Arm(faultpoint.SiteFlushPost, faultpoint.Crash, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	var writers sync.WaitGroup
	defer writers.Wait()
	defer cancel()
	for i := 0; i < 16; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			// Durable or not, none of these is ever answered: the node died
			// before releasing anything.
			if v, err := a.Do(ctx, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("k%d", i)), []byte("v")}); err == nil {
				t.Errorf("write %d answered by a crashed primary: %v", i, v)
			}
		}(i)
	}
	if !waitChanged(a, 5*time.Second, a.Frozen) {
		t.Fatal("core.flush.post never crashed the primary")
	}
	frozenWith := runtime.NumGoroutine()

	waitRole(t, b, election.RolePrimary, 5*time.Second)
	if v := mustDo(t, b, "SET", "k", "after"); v.Text() != "OK" {
		t.Fatalf("write on the successor: %v", v)
	}
	// Entries keep committing behind the frozen node's workloop; they wait
	// in its FIFO of issued appends, on no goroutine of their own. (The
	// log's wake-up of a tailing replica lives a millisecond: wait it out.)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > frozenWith; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d while the primary was frozen", frozenWith, runtime.NumGoroutine())
		}
	}
	if !a.Frozen() {
		t.Fatal("the crashed primary thawed by itself")
	}
}

// An injected transient failure at either gate between quorum and release
// has nothing left to fail: the entry is durable. It is ignored, so a
// release it hits is never stranded: the write's reply is delivered when
// its own entry is answered for, once, and the next write's after it.
func TestPostCommitErrorStrandsNoRelease(t *testing.T) {
	for _, site := range []string{faultpoint.SiteFlushPost, faultpoint.SiteReplyRelease} {
		t.Run(site, func(t *testing.T) {
			svc := testService(t, netsim.Fixed(time.Millisecond))
			log, _ := svc.CreateLog("shard-1")
			faults := faultpoint.New(1)
			// No renewal falls inside the test: only the writes' own
			// entries can answer for them.
			n, err := NewNode(Config{NodeID: "node-a", ShardID: log.ShardID(), Log: log, Faults: faults,
				Lease: 20 * time.Second, Backoff: 25 * time.Second, RenewEvery: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			n.Start()
			t.Cleanup(n.Stop)
			waitRole(t, n, election.RolePrimary, 2*time.Second)
			finished := n.Obs().Stage(obs.StageE2E).Count()

			faults.Arm(site, faultpoint.Error, 0)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			for _, k := range []string{"k1", "k2"} {
				v, err := n.Do(ctx, [][]byte{[]byte("SET"), []byte(k), []byte("v")})
				if err != nil || v.Text() != "OK" {
					t.Fatalf("SET %s = %v, %v; want OK", k, v, err)
				}
			}
			if got := faults.Fired(site, faultpoint.Error); got != 1 {
				t.Fatalf("%s fired %d Errors, want 1", site, got)
			}
			waitFor(t, "the log to answer for every issued entry", func() bool {
				entries := n.fifo()
				return entries == 0
			})
			if got := n.Obs().Stage(obs.StageE2E).Count() - finished; got != 2 {
				t.Fatalf("2 writes sent, %d replies delivered", got)
			}
		})
	}
}
