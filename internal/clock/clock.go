// Package clock abstracts time so that every subsystem can run against
// either the wall clock or a deterministic simulated clock. All MemoryDB
// components take a Clock; tests and the discrete-event experiments
// (Figure 6/7) drive a Sim clock manually.
package clock

import (
	"sync"
	"time"
)

// Clock is the minimal time surface used across the repository.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks the calling goroutine for d.
	Sleep(d time.Duration)
	// After returns a channel that delivers the time after d has elapsed.
	After(d time.Duration) <-chan time.Time
	// AfterFunc calls f once d has elapsed, never early. f must not block; a short lock is fine.
	AfterFunc(d time.Duration, f func())
}

// Real is a Clock backed by the wall clock.
type Real struct{}

// NewReal returns the wall Clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) { time.AfterFunc(d, f) }

// Sim is a manually advanced clock. Goroutines blocked in Sleep or on an
// After channel are released, and AfterFunc calls made, when Advance moves
// the clock past their deadline. The zero value is not usable; call NewSim.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*simWaiter
}

type simWaiter struct {
	deadline time.Time
	f        func()
}

// NewSim returns a simulated clock starting at start.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Sleep implements Clock. It blocks until Advance moves the clock past
// now+d.
func (s *Sim) Sleep(d time.Duration) {
	<-s.After(d)
}

// After implements Clock.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	s.AfterFunc(d, func() { ch <- s.Now() })
	return ch
}

// AfterFunc implements Clock: f runs at once for d <= 0, else in Advance.
func (s *Sim) AfterFunc(d time.Duration, f func()) {
	s.mu.Lock()
	if d > 0 {
		s.waiters = append(s.waiters, &simWaiter{deadline: s.now.Add(d), f: f})
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	f()
}

// Advance moves the simulated time forward by d, waking every waiter whose
// deadline has passed.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	s.now = s.now.Add(d)
	now := s.now
	var remaining []*simWaiter
	var fire []*simWaiter
	for _, w := range s.waiters {
		if !w.deadline.After(now) {
			fire = append(fire, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	s.waiters = remaining
	s.mu.Unlock()
	for _, w := range fire {
		w.f()
	}
}

// PendingWaiters reports how many goroutines are blocked on this clock.
func (s *Sim) PendingWaiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}
