package core

// Parked returns the number of reads currently parked.
func (g *ReadGate) Parked() int { return g.trk.PendingCount() }

// Fenced returns how many watermark pairs were rejected by epoch fencing.
func (g *ReadGate) Fenced() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fenced
}
