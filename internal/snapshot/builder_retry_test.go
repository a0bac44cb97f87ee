package snapshot

import (
	"context"
	"errors"
	"testing"
	"time"

	"memorydb/internal/faultpoint"
	"memorydb/internal/retry"
	"memorydb/internal/s3"
)

// TestBuilderSurvivesBriefS3Outage: a snapshot pass must not fail because
// S3 blipped — the retrying wrapper absorbs the outage and the pass
// completes (snapshot/S3 retry discipline).
func TestBuilderSurvivesBriefS3Outage(t *testing.T) {
	log, _ := buildLoggedShard(t, 10)
	faults := faultpoint.New(1)
	store := s3.New(s3.WithFaults(faults))
	mgr := NewManager(store, "snaps")
	b := &Builder{
		Manager: mgr, Log: log, ShardID: "s1",
		EngineVersion: 2,
		Retry:         retry.Policy{Base: time.Millisecond, Max: 10 * time.Millisecond, Attempts: 12},
	}

	// Outage raised before the run, healed mid-run: the restore leg must
	// retry through it rather than fail the snapshot.
	faults.SetPlan(faultpoint.SiteS3Request, 1, 0, faultpoint.Error)
	go func() {
		time.Sleep(15 * time.Millisecond)
		faults.SetPlan(faultpoint.SiteS3Request, 0, 0)
	}()
	meta, err := b.Full(context.Background())
	if err != nil {
		t.Fatalf("snapshot pass across S3 blip: %v", err)
	}
	if meta.LogPos != log.CommittedTail() {
		t.Fatalf("snapshot at %v, want %v", meta.LogPos, log.CommittedTail())
	}
	if _, ok, err := mgr.Resolve("s1", false); err != nil || !ok {
		t.Fatalf("snapshot not retrievable after the pass: %v %v", ok, err)
	}

	// A persistent outage still fails (bounded attempts, not forever).
	faults.SetPlan(faultpoint.SiteS3Request, 1, 0, faultpoint.Error)
	if _, err := b.Full(context.Background()); !errors.Is(err, s3.ErrUnavailable) {
		t.Fatalf("persistent outage: err = %v, want ErrUnavailable", err)
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
		Retry: retry.Policy{Base: time.Millisecond, Max: 10 * time.Millisecond, Attempts: 12},
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
