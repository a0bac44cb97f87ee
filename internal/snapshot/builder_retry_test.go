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
