package cluster

import (
	"memorydb/internal/trace"
)

// Flight-recorder plumbing. Each node identity gets one ring, keyed like
// the fault registries: a restarted node's replacement process keeps
// appending to its predecessor's ring, so the merged timeline shows the
// whole identity's history (kill → restart → rejoin) in one place.

// nodeFlight returns (creating on first use) nodeID's flight ring.
func (c *Cluster) nodeFlight(nodeID string) *trace.Flight {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flights == nil {
		c.flights = make(map[string]*trace.Flight)
	}
	f, ok := c.flights[nodeID]
	if !ok {
		f = trace.NewFlight(nodeID, 0)
		c.flights[nodeID] = f
	}
	return f
}

// MergedTimeline merges every identity's flight ring — each node's and
// the Monitor's — plus the shared log service's, which records segment
// seals, trims and quarantines, and the snapshot Manager's, which holds
// the snapshot pipeline's alarms, into one causally-ordered cluster
// timeline. This is the black-box readout: call it when a test fails, a
// node demotes unexpectedly, or an operator runs DEBUG FLIGHT DUMP and
// wants more than one node's view.
func (c *Cluster) MergedTimeline() []trace.Event {
	return trace.Merge(c.rings()...)
}

// FlightTotal is the number of events ever recorded on the rings
// MergedTimeline merges, including those the rings have since dropped.
func (c *Cluster) FlightTotal() uint64 {
	var total uint64
	for _, f := range c.rings() {
		total += f.Total()
	}
	return total
}

// rings lists every identity's flight ring, the log service's and the
// snapshot Manager's.
func (c *Cluster) rings() []*trace.Flight {
	c.mu.RLock()
	flights := make([]*trace.Flight, 0, len(c.flights)+2)
	for _, f := range c.flights {
		flights = append(flights, f)
	}
	c.mu.RUnlock()
	flights = append(flights, c.cfg.LogService.Flight())
	if c.cfg.Snapshots != nil {
		flights = append(flights, c.cfg.Snapshots.Flight)
	}
	return flights
}
