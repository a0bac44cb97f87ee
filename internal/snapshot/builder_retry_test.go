package snapshot

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"memorydb/internal/faultpoint"
	"memorydb/internal/s3"
)

// TestBuilderRetriesS3OnlyOnItsNextPass: the builder's pass is the only
// retry of its S3 requests. During an outage a pass — a Full that must
// first restore, and a Tick with a delta due — makes exactly one S3
// request, which fails, and returns s3.ErrUnavailable. Once S3 heals, the
// next pass lands the snapshot at the committed tail, and a restore holds
// every key.
func TestBuilderRetriesS3OnlyOnItsNextPass(t *testing.T) {
	h := newShardHarness(t, 8)
	faults := faultpoint.New(1)
	mgr := NewManager(s3.New(s3.WithFaults(faults)), "snaps")
	b := &Builder{Manager: mgr, Log: h.log, ShardID: "s1", EngineVersion: 2, DeltaInterval: 4}
	ctx := context.Background()
	write := func(round int) {
		for i := 0; i < 4; i++ {
			h.do("SET", fmt.Sprintf("k%d-%d", round, i), fmt.Sprintf("v%d", i))
		}
	}
	outage := func(pass string, run func() error) {
		t.Helper()
		faults.SetPlan(faultpoint.SiteS3Request, 1, 0, faultpoint.Error)
		hits, fired := faults.Hits(faultpoint.SiteS3Request), faults.Fired(faultpoint.SiteS3Request, faultpoint.Error)
		if err := run(); !errors.Is(err, s3.ErrUnavailable) {
			t.Fatalf("%s during an S3 outage: err = %v, want ErrUnavailable", pass, err)
		}
		hits = faults.Hits(faultpoint.SiteS3Request) - hits
		fired = faults.Fired(faultpoint.SiteS3Request, faultpoint.Error) - fired
		if hits != 1 || fired != 1 {
			t.Fatalf("%s during an S3 outage made %d S3 requests (%d failed), want 1 failed: the next pass is the retry",
				pass, hits, fired)
		}
		faults.SetPlan(faultpoint.SiteS3Request, 0, 0)
	}

	write(0)
	outage("Full", func() error { _, err := b.Full(ctx); return err })
	meta, err := b.Full(ctx)
	if err != nil {
		t.Fatalf("Full after S3 healed: %v", err)
	}
	if meta.LogPos != h.log.CommittedTail() {
		t.Fatalf("full at %v, want the committed tail %v", meta.LogPos, h.log.CommittedTail())
	}
	h.checkRestore(mgr)
	if err := b.Tick(ctx); err != nil { // the full's rehearsal
		t.Fatal(err)
	}

	write(1)
	outage("Tick", func() error { return b.Tick(ctx) })
	if err := b.Tick(ctx); err != nil {
		t.Fatalf("Tick after S3 healed: %v", err)
	}
	if chain := h.checkRestore(mgr); chain.Tip.Kind != KindDelta || chain.Tip.LogPos != h.log.CommittedTail() {
		t.Fatalf("after the outage: tip %v at %v, want a delta at the committed tail %v",
			chain.Tip.Kind, chain.Tip.LogPos, h.log.CommittedTail())
	}
}

// TestBuilderJudgesAgainAfterS3Outage: a rehearsal that S3 cuts short is
// no verdict. The pass neither retries it, since the next pass is the
// retry, nor counts it, nor trims; the pass after the outage judges and
// trims.
func TestBuilderJudgesAgainAfterS3Outage(t *testing.T) {
	log, _ := buildSegmentedShard(t, 40, 8)
	faults := faultpoint.New(1)
	mgr := NewManager(s3.New(s3.WithFaults(faults)), "snaps")
	b := &Builder{
		Manager: mgr, Log: log, ShardID: "s1", EngineVersion: 2,
	}
	ctx := context.Background()
	if _, err := b.Full(ctx); err != nil {
		t.Fatal(err)
	}

	faults.SetPlan(faultpoint.SiteS3Request, 1, 0, faultpoint.Error)
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if fired := faults.Fired(faultpoint.SiteS3Request, faultpoint.Error); fired != 1 {
		t.Fatalf("the judging pass made %d failed S3 requests, want 1: no retries inside the pass", fired)
	}
	if got, base := b.Stats().Rehearsals, log.TrimBase(); got != 0 || base.Seq != 0 {
		t.Fatalf("after an outage: %d rehearsals, trim base %v; want none and none", got, base)
	}

	faults.SetPlan(faultpoint.SiteS3Request, 0, 0)
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if got, trimmed := b.Stats().Rehearsals, log.SegmentStats().Trimmed; got != 1 || trimmed == 0 {
		t.Fatalf("after the outage healed: %d rehearsals, %d segments trimmed; want 1 and some", got, trimmed)
	}
}
