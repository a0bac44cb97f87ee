package txlog

import (
	"fmt"
	"sync"
	"time"

	"memorydb/internal/faultpoint"
	"memorydb/internal/netsim"
	"memorydb/internal/obs"
)

// AZReplica simulates one availability zone's copy of the transaction log
// service. The paper's log commits an entry once a quorum of AZ replicas
// has durably acknowledged it (§3, §4.2): with 3 AZs and a 2-of-3 quorum,
// one zone can be down, flaky, or slow without making the service
// unavailable — it only changes which acknowledgements bound the commit
// latency. Faults are injected at the zone's site (faultpoint.ZoneAckSite)
// in the service's fault registry:
//
//   - down: a standing Error plan — the zone never acknowledges (outage);
//   - flaky: an Error plan with probability p < 1 — each acknowledgement
//     is dropped with seeded probability p (grey failure);
//   - slow: a Delay plan — acknowledgements arrive after its extra latency
//     (degraded zone).
//
// One AZ down shifts the commit latency from the 2nd-fastest of 3 acks to
// the slower of the remaining 2; two AZs down drops the service below
// quorum and appends fail with ErrUnavailable until a zone recovers.
type AZReplica struct {
	name    string
	site    string // fault site, precomputed so a hit never allocates
	faults  *faultpoint.Registry
	latency netsim.LatencyModel // per-ack latency draw

	mu sync.Mutex
	// acksDropped counts acknowledgements lost to down/flaky injection;
	// acksServed counts delivered ones (observability for tests).
	acksDropped int64
	acksServed  int64

	// Segment-granular zone state: every sealed segment is copied to each
	// zone; a down zone misses seals and resyncs whole segments once
	// healthy (on the next seal).
	segsHeld     int64
	segsMissing  int64
	segsResynced int64

	// ackLatency records every served acknowledgement's latency draw.
	// Always on: a flaky or slow AZ is identified by comparing the three
	// zones' distributions (and drop counts) in CLUSTER INFO / metrics.
	ackLatency obs.Histogram
}

func newAZReplica(i int, lat netsim.LatencyModel, faults *faultpoint.Registry) *AZReplica {
	return &AZReplica{name: fmt.Sprintf("az-%d", i+1), site: faultpoint.ZoneAckSite(i), faults: faults, latency: lat}
}

// Name returns the zone label ("az-1"…).
func (a *AZReplica) Name() string { return a.name }

// down reports whether the zone is down: a standing Error plan at its
// site. A level, read without a hit.
func (a *AZReplica) down() bool { return a.faults.Standing(a.site) == faultpoint.Error }

// AckLatency exposes the zone's served-acknowledgement latency
// histogram (cluster introspection and the metrics endpoint read it).
func (a *AZReplica) AckLatency() *obs.Histogram { return &a.ackLatency }

// Acks returns (served, dropped) acknowledgement counts.
func (a *AZReplica) Acks() (served, dropped int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acksServed, a.acksDropped
}

// noteSeal records one sealed segment against this zone. An up zone
// first catches up on every segment it missed while down (the
// segment-granular background copy a real log service would stream),
// then stores the new one; a down zone falls one segment further behind.
func (a *AZReplica) noteSeal() {
	down := a.down()
	a.mu.Lock()
	defer a.mu.Unlock()
	if down {
		a.segsMissing++
		return
	}
	if a.segsMissing > 0 {
		a.segsHeld += a.segsMissing
		a.segsResynced += a.segsMissing
		a.segsMissing = 0
	}
	a.segsHeld++
}

// Segments returns the zone's segment-granular state: sealed segments
// held, currently missing (zone lagging), and resynced over its lifetime.
func (a *AZReplica) Segments() (held, missing, resynced int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.segsHeld, a.segsMissing, a.segsResynced
}

// ack draws one append acknowledgement: ok=false means the zone did not
// acknowledge (down or flaky drop); otherwise d is the simulated time for
// this zone's durable ack.
func (a *AZReplica) ack() (d time.Duration, ok bool) {
	fault := a.faults.Hit(a.site)
	if fault.Kind == faultpoint.Error {
		a.mu.Lock()
		a.acksDropped++
		a.mu.Unlock()
		return 0, false
	}
	d = a.latency.Sample()
	if fault.Kind == faultpoint.Delay {
		d += fault.Delay
	}
	a.mu.Lock()
	a.acksServed++
	a.mu.Unlock()
	a.ackLatency.Observe(d)
	return d, true
}
