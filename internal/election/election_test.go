package election

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/txlog"
)

func cfg(clk clock.Clock, id string) Config {
	return Config{
		NodeID:     id,
		Lease:      100 * time.Millisecond,
		Backoff:    130 * time.Millisecond,
		RenewEvery: 25 * time.Millisecond,
		Clock:      clk,
	}
}

func TestConfigValidate(t *testing.T) {
	c := cfg(clock.NewReal(), "n")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := c
	bad.Backoff = c.Lease // must be strictly greater
	if err := bad.Validate(); err == nil {
		t.Fatal("backoff == lease accepted")
	}
	bad2 := c
	bad2.RenewEvery = c.Lease
	if err := bad2.Validate(); err == nil {
		t.Fatal("renew >= lease accepted")
	}
}

func TestClaimRenewalPayloadRoundTrip(t *testing.T) {
	c := Claim{NodeID: "n1", Epoch: 7, LeaseMs: 100}
	got, err := DecodeClaim(EncodeClaim(c))
	if err != nil || got != c {
		t.Fatalf("claim round trip: %v %v", got, err)
	}
	r := Renewal{NodeID: "n1", Epoch: 7, LeaseMs: 100}
	gr, err := DecodeRenewal(EncodeRenewal(r))
	if err != nil || gr != r {
		t.Fatalf("renewal round trip: %v %v", gr, err)
	}
	if _, err := DecodeClaim([]byte("{garbage")); err == nil {
		t.Fatal("garbage claim accepted")
	}
	if _, err := DecodeRenewal([]byte("{garbage")); err == nil {
		t.Fatal("garbage renewal accepted")
	}
}

func TestObserverBackoffWindow(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	o := NewObserver(cfg(clk, "n"))
	mayCampaign := func() bool { return !clk.Now().Before(o.CampaignAt()) }
	if mayCampaign() {
		t.Fatal("fresh observer must wait out the backoff")
	}
	clk.Advance(130 * time.Millisecond)
	if !mayCampaign() {
		t.Fatal("backoff elapsed; campaigning must be allowed")
	}
	o.ObserveRenewal()
	if mayCampaign() {
		t.Fatal("renewal observed; backoff must restart")
	}
	o.Release()
	if !mayCampaign() {
		t.Fatal("lease released; campaigning must be allowed at once")
	}
	o.ObserveRenewal()
	clk.Advance(129 * time.Millisecond)
	if mayCampaign() {
		t.Fatal("campaign allowed before the second backoff elapsed")
	}
	clk.Advance(time.Millisecond)
	if !mayCampaign() {
		t.Fatal("second backoff elapsed")
	}
}

func TestLeaseValidityAndRenewal(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	l := NewLease(cfg(clk, "n"), 1)
	if !l.Valid() {
		t.Fatal("fresh lease invalid")
	}
	clk.Advance(99 * time.Millisecond)
	if !l.Valid() {
		t.Fatal("lease expired early")
	}
	issued := clk.Now()
	l.Renewed(issued)
	clk.Advance(99 * time.Millisecond)
	if !l.Valid() {
		t.Fatal("renewed lease expired early")
	}
	clk.Advance(2 * time.Millisecond)
	if l.Valid() {
		t.Fatal("lease must expire Lease after last renewal issue time")
	}
}

func TestLeaseRenewalNeverShortens(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	l := NewLease(cfg(clk, "n"), 1)
	exp := l.ExpiresAt()
	l.Renewed(clk.Now().Add(-time.Hour)) // stale issue time
	if l.ExpiresAt().Before(exp) {
		t.Fatal("stale renewal shortened the lease")
	}
}

// Safety invariant: lease (primary silence deadline) always ends before
// backoff (replica campaign earliest time), measured from the same
// renewal observation — so at most one node can act as leader.
func TestLeaseBackoffDisjointness(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	c := cfg(clk, "n")
	lease := NewLease(c, 1)
	obs := NewObserver(c)
	// The replica observes the renewal some time after it was issued.
	issue := clk.Now()
	lease.Renewed(issue)
	clk.Advance(10 * time.Millisecond) // replication delay
	obs.ObserveRenewal()
	// Walk the clock forward; whenever the observer may campaign the
	// lease must already be invalid.
	for i := 0; i < 300; i++ {
		clk.Advance(time.Millisecond)
		if !clk.Now().Before(obs.CampaignAt()) && lease.Valid() {
			t.Fatalf("at +%dms both lease valid and campaign allowed", 10+i)
		}
	}
}

func TestCampaignOnlyFromTail(t *testing.T) {
	svc := txlog.NewService(txlog.Config{})
	log, _ := svc.CreateLog("s")
	ctx := context.Background()
	tail, err := log.Append(ctx, txlog.ZeroID, txlog.Entry{Type: txlog.EntryData, Payload: []byte("w")})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewReal()
	// A lagging replica (observed ZeroID) cannot win.
	if _, _, err := Campaign(ctx, log, cfg(clk, "laggard"), txlog.ZeroID); !errors.Is(err, txlog.ErrConditionFailed) {
		t.Fatalf("lagging campaign: %v", err)
	}
	// The caught-up replica wins.
	lease, claimID, err := Campaign(ctx, log, cfg(clk, "caughtup"), tail)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Epoch() != 1 || claimID.Seq != tail.Seq+1 {
		t.Fatalf("lease epoch %d claim %v", lease.Epoch(), claimID)
	}
	// The claim is readable and carries the claimant.
	e, ok := log.Get(claimID)
	if !ok || e.Type != txlog.EntryLeadership {
		t.Fatalf("claim entry: %v %v", e, ok)
	}
	c, err := DecodeClaim(e.Payload)
	if err != nil || c.NodeID != "caughtup" {
		t.Fatalf("claim payload: %v %v", c, err)
	}
}

func TestConcurrentCampaignsOneWinner(t *testing.T) {
	svc := txlog.NewService(txlog.Config{})
	log, _ := svc.CreateLog("s")
	ctx := context.Background()
	clk := clock.NewReal()
	var mu sync.Mutex
	winners := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := Campaign(ctx, log, cfg(clk, "n"+string(rune('0'+i))), txlog.ZeroID); err == nil {
				mu.Lock()
				winners++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if winners != 1 {
		t.Fatalf("winners = %d", winners)
	}
}

func TestRenewExtendsAndChains(t *testing.T) {
	svc := txlog.NewService(txlog.Config{})
	log, _ := svc.CreateLog("s")
	ctx := context.Background()
	clk := clock.NewSim(time.Unix(0, 0))
	c := cfg(clk, "n1")
	lease, claimID, err := Campaign(ctx, log, c, txlog.ZeroID)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(50 * time.Millisecond)
	id, err := Renew(ctx, log, c, lease, claimID)
	if err != nil {
		t.Fatal(err)
	}
	if id.Seq != claimID.Seq+1 {
		t.Fatalf("renewal id = %v", id)
	}
	// Lease now extends 100ms past the renewal issue (t=50ms).
	clk.Advance(99 * time.Millisecond)
	if !lease.Valid() {
		t.Fatal("lease should extend from renewal")
	}
	// Renewal from a stale tail fails (fencing).
	if _, err := Renew(ctx, log, c, lease, claimID); !errors.Is(err, txlog.ErrConditionFailed) {
		t.Fatalf("stale renew: %v", err)
	}
}

func TestRoleString(t *testing.T) {
	if RolePrimary.String() != "primary" || RoleReplica.String() != "replica" || RoleDemoted.String() != "demoted" {
		t.Fatal("role names")
	}
}
