package snapshot

import (
	"context"
	"strings"
	"testing"

	"memorydb/internal/faultpoint"
	"memorydb/internal/s3"
)

// TestManagerRetainsAlarmsWithoutAlarmFn: a Manager nobody wired still
// keeps its alarms, on the ring NewManager gave it, and the snapshot that
// failed verification is quarantined rather than authorize a trim.
func TestManagerRetainsAlarmsWithoutAlarmFn(t *testing.T) {
	log, _ := buildSegmentedShard(t, 20, 4)
	mgr := NewManager(s3.New(), "snaps") // no ring wired
	faults := faultpoint.New(1)
	b := &Builder{Manager: mgr, Log: log, ShardID: "s1", EngineVersion: 1, Faults: faults}
	ctx := context.Background()

	if got := alarms(mgr.Flight); len(got) != 0 {
		t.Fatalf("alarms before any pass: %q", got)
	}
	faults.Arm(faultpoint.SiteSnapBuild, faultpoint.Corrupt, 0)
	if _, err := b.Full(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if trimmed, rehearsals := log.SegmentStats().Trimmed, b.Stats().Rehearsals; trimmed != 0 || rehearsals != 1 {
		t.Fatalf("corrupt snapshot: trimmed %d segments over %d rehearsals, want 0 over 1", trimmed, rehearsals)
	}
	if chain, ok, _ := mgr.Resolve("s1", false); ok || chain.Skipped != 0 {
		t.Fatal("snapshot that failed verification was not quarantined")
	}
	if got := alarms(mgr.Flight); len(got) != 1 || !strings.Contains(got[0], "verification failed") {
		t.Fatalf("retained alarms = %q, want one verification failure", got)
	}

	faults.Arm(faultpoint.SiteSnapBuild, faultpoint.Corrupt, 0)
	if _, err := b.Full(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if got := alarms(mgr.Flight); len(got) != 2 {
		t.Fatalf("retained alarms after second failure = %d, want 2", len(got))
	}

	// A clean snapshot then verifies and trims.
	if _, err := b.Full(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if log.SegmentStats().Trimmed == 0 {
		t.Fatal("verified snapshot authorized no trim")
	}
}
