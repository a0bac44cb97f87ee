package tracker

// Abort, Committed and PendingCount are the gate's stop and its two
// accessors, which only the tests use.

// Abort fails every gated waiter: the watermark will not advance again.
// Subsequent registrations also deliver aborted.
func (t *Tracker) Abort() {
	t.mu.Lock()
	if t.aborted {
		t.mu.Unlock()
		return
	}
	t.aborted = true
	release := t.pending
	t.pending = nil
	t.mu.Unlock()
	for _, g := range release {
		g.deliver(true)
	}
}

// Committed returns the watermark.
func (t *Tracker) Committed() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.committed
}

// PendingCount returns the number of gated deliveries (metrics/tests).
func (t *Tracker) PendingCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}
