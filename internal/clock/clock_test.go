package clock

import (
	"testing"
	"time"
)

func TestRealClockMonotonicish(t *testing.T) {
	c := NewReal()
	a := c.Now()
	c.Sleep(time.Millisecond)
	if !c.Now().After(a) {
		t.Fatal("time did not advance")
	}
}

func TestSimNowAndAdvance(t *testing.T) {
	start := time.Unix(1000, 0)
	c := NewSim(start)
	if !c.Now().Equal(start) {
		t.Fatal("start time")
	}
	c.Advance(5 * time.Second)
	if !c.Now().Equal(start.Add(5 * time.Second)) {
		t.Fatal("Advance")
	}
}

func TestSimAfterFiresAtDeadline(t *testing.T) {
	c := NewSim(time.Unix(0, 0))
	ch := c.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("fired early")
	default:
	}
	c.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("fired before deadline")
	default:
	}
	c.Advance(time.Second)
	select {
	case <-ch:
	default:
		t.Fatal("did not fire at deadline")
	}
	if c.PendingWaiters() != 0 {
		t.Fatalf("pending waiters = %d", c.PendingWaiters())
	}
}

func TestSimAfterNonPositive(t *testing.T) {
	c := NewSim(time.Unix(0, 0))
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) must fire immediately")
	}
}

func TestSimSleepWakesGoroutine(t *testing.T) {
	c := NewSim(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		c.Sleep(time.Minute)
		close(done)
	}()
	// Wait until the sleeper registers.
	for c.PendingWaiters() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	c.Advance(time.Minute)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("sleeper never woke")
	}
}

func TestSimMultipleWaitersWakeInAnyOrder(t *testing.T) {
	c := NewSim(time.Unix(0, 0))
	ch1 := c.After(time.Second)
	ch2 := c.After(2 * time.Second)
	c.Advance(90 * time.Minute)
	<-ch1
	<-ch2
}

func TestSimAfterFuncRunsOnAdvance(t *testing.T) {
	c := NewSim(time.Unix(0, 0))
	fired := 0
	c.AfterFunc(time.Second, func() { fired++ })
	c.Advance(999 * time.Millisecond)
	if fired != 0 {
		t.Fatal("AfterFunc ran before its deadline")
	}
	c.Advance(time.Millisecond)
	if fired != 1 || c.PendingWaiters() != 0 {
		t.Fatalf("fired %d times, %d waiters left; want 1 and 0", fired, c.PendingWaiters())
	}
	c.AfterFunc(0, func() { fired++ })
	if fired != 2 {
		t.Fatal("AfterFunc(0) must run at once")
	}
}
