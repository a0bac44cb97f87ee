package snapshot

import (
	"context"
	"errors"
	"testing"
	"time"

	"memorydb/internal/retry"
	"memorydb/internal/s3"
)

// TestBuilderSurvivesBriefS3Outage: a snapshot pass must not fail because
// S3 blipped — the retrying wrapper absorbs the outage and the pass
// completes (snapshot/S3 retry discipline).
func TestBuilderSurvivesBriefS3Outage(t *testing.T) {
	log, _ := buildLoggedShard(t, 10)
	store := s3.New()
	mgr := NewManager(store, "snaps")
	b := &Builder{
		Manager: mgr, Log: log, ShardID: "s1",
		EngineVersion: 2,
		Retry:         retry.Policy{Base: time.Millisecond, Max: 10 * time.Millisecond, Attempts: 12},
	}

	// Outage raised before the run, healed mid-run: the restore leg must
	// retry through it rather than fail the snapshot.
	store.SetUnavailable(true)
	go func() {
		time.Sleep(15 * time.Millisecond)
		store.SetUnavailable(false)
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
	store.SetUnavailable(true)
	if _, err := b.Full(context.Background()); !errors.Is(err, s3.ErrUnavailable) {
		t.Fatalf("persistent outage: err = %v, want ErrUnavailable", err)
	}
}
