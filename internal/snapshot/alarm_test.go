package snapshot

import (
	"context"
	"strings"
	"testing"

	"memorydb/internal/faultpoint"
	"memorydb/internal/s3"
)

// TestManagerRetainsAlarmsWithoutAlarmFn covers the dropped-alarm fix: with
// no pager wired up (AlarmFn == nil) a verification failure must still be
// retained in the manager's bounded ring, where post-mortems can find it,
// and the failed snapshot must be quarantined rather than authorize a trim.
func TestManagerRetainsAlarmsWithoutAlarmFn(t *testing.T) {
	log, _ := buildSegmentedShard(t, 20, 4)
	mgr := NewManager(s3.New(), "snaps") // AlarmFn deliberately nil.
	faults := faultpoint.New(1)
	b := &Builder{Manager: mgr, Log: log, ShardID: "s1", EngineVersion: 1, Faults: faults}
	ctx := context.Background()

	if got := mgr.RecentAlarms(8); len(got) != 0 {
		t.Fatalf("alarms before any pass: %v", got)
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
	alarms := mgr.RecentAlarms(8)
	if len(alarms) != 1 || !strings.Contains(alarms[0].Msg, "verification failed") {
		t.Fatalf("retained alarms = %+v, want one verification failure", alarms)
	}

	// When a pager IS wired, it gets the message too — the ring is in
	// addition to AlarmFn, not instead of it.
	var paged []string
	mgr.AlarmFn = func(msg string) { paged = append(paged, msg) }
	faults.Arm(faultpoint.SiteSnapBuild, faultpoint.Corrupt, 0)
	if _, err := b.Full(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if len(paged) != 1 || !strings.Contains(paged[0], "verification failed") {
		t.Fatalf("AlarmFn pages = %v, want one verification failure", paged)
	}
	if got := mgr.RecentAlarms(8); len(got) != 2 {
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
