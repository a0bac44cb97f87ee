package cluster

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/netsim"
	"memorydb/internal/s3"
	"memorydb/internal/snapshot"
	"memorydb/internal/txlog"
)

// TestSoakBoundedLog is the bounded-log gate (`make soak`, armed by
// MEMORYDB_SOAK=1): under sustained write load with the snapshot
// builder, which trims behind each verified full, running at its normal
// cadence, the live transaction log must stay bounded — at every sample
// the retained bytes may never exceed twice the segment threshold (the
// partial active segment plus at most one sealed segment the newest
// snapshot does not yet cover). An unbounded log here means trimming
// silently stopped keeping up, which is exactly the slow-leak failure a
// point-in-time test cannot see.
func TestSoakBoundedLog(t *testing.T) {
	if os.Getenv("MEMORYDB_SOAK") == "" {
		t.Skip("soak gate skipped; arm with MEMORYDB_SOAK=1 (make soak)")
	}
	const (
		seed     = int64(11)
		segBytes = 32 << 10
		duration = 4 * time.Second
		warmup   = time.Second
	)
	svc := txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: netsim.NewUniform(100*time.Microsecond, time.Millisecond, seed),
		SegmentBytes:  segBytes,
	})
	snaps := snapshot.NewManager(s3.New(), "snaps")
	c, err := New(Config{
		Name: "soak", NumShards: 1, ReplicasPerShard: 2,
		LogService: svc, Snapshots: snaps,
		Lease: 100 * time.Millisecond, Backoff: 140 * time.Millisecond,
		RenewEvery:    25 * time.Millisecond,
		ChecksumEvery: 64, RetrySeed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	sh := c.Shards()[0]
	if _, err := sh.WaitForPrimary(c.Clock(), 3*time.Second); err != nil {
		t.Fatal(err)
	}

	// Production wiring: the builder tails the log on its own cadence —
	// every other snapshot a full, so the chain base it may trim to stays
	// within a few dozen entries of the tail — and trims on the pass
	// after each full.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	builder := &snapshot.Builder{
		Manager: snaps, Log: sh.Log, ShardID: sh.ID, EngineVersion: 1,
		DeltaInterval: 16, CompactEvery: 1,
	}
	go builder.Run(ctx)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	var wrote, failed int64
	var wmu sync.Mutex
	filler := strings.Repeat("x", 96)
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(id int) {
			defer writers.Done()
			cl := c.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(2 * time.Millisecond)
				cctx, cancel := context.WithTimeout(ctx, 400*time.Millisecond)
				v, err := cl.Do(cctx, "SET", fmt.Sprintf("soak-%d-%d", id, i), filler)
				cancel()
				wmu.Lock()
				if err == nil && !v.IsError() {
					wrote++
				} else {
					failed++
				}
				wmu.Unlock()
			}
		}(w)
	}

	start := time.Now()
	var maxLive int64
	samples := 0
	for time.Since(start) < duration {
		time.Sleep(150 * time.Millisecond)
		if time.Since(start) < warmup {
			continue
		}
		st := sh.Log.SegmentStats()
		samples++
		if st.LiveBytes > maxLive {
			maxLive = st.LiveBytes
		}
		if st.LiveBytes > 2*segBytes {
			t.Errorf("live log bytes %d exceed the 2x segment bound (%d): %+v",
				st.LiveBytes, 2*segBytes, st)
		}
	}
	close(stop)
	writers.Wait()
	for range 2 { // catch up, then judge a full that pass emitted
		if err := builder.Tick(ctx); err != nil {
			t.Fatalf("final builder pass: %v", err)
		}
	}

	if samples == 0 {
		t.Fatal("soak produced no post-warmup samples")
	}
	wmu.Lock()
	w, f := wrote, failed
	wmu.Unlock()
	if w == 0 {
		t.Fatal("soak acknowledged no writes")
	}
	st := sh.Log.SegmentStats()
	rehearsals := builder.Stats().Rehearsals
	if st.Trimmed == 0 {
		t.Fatalf("soak never trimmed: %+v (%d rehearsals)", st, rehearsals)
	}
	if st.LiveBytes > 2*segBytes {
		t.Fatalf("final live log bytes %d exceed the 2x segment bound (%d): %+v", st.LiveBytes, 2*segBytes, st)
	}
	t.Logf("soak: %d writes (%d failed), %d samples, max live %d bytes (bound %d), %d segments trimmed over %d rehearsals",
		w, f, samples, maxLive, 2*segBytes, st.Trimmed, rehearsals)
}
