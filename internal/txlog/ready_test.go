package txlog

import (
	"context"
	"errors"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/netsim"
)

// A commit racing Ready can never be missed: one goroutine appends while
// another alternates TryNext and <-Ready(), and every entry arrives exactly
// once, in order, with nothing but the commit signal to wake the reader.
func TestReaderReadyNoLostWakeup(t *testing.T) {
	const rounds = 2000
	l := newTestLog(t, netsim.Zero{})
	appended := make(chan error, 1)
	go func() {
		after := ZeroID
		for i := 0; i < rounds; i++ {
			id, err := l.Append(context.Background(), after, Entry{Type: EntryData, Payload: []byte{byte(i), byte(i >> 8)}})
			if err != nil {
				appended <- err
				return
			}
			after = id
		}
		appended <- nil
	}()
	r := l.NewReader(ZeroID)
	for want := uint64(1); want <= rounds; {
		e, ok, err := r.TryNext()
		if err != nil {
			t.Fatalf("TryNext at %d: %v", want, err)
		}
		if ok {
			if e.ID.Seq != want || int(e.Payload[0])|int(e.Payload[1])<<8 != int(want-1) {
				t.Fatalf("delivered %v payload %v, want seq %d", e.ID, e.Payload, want)
			}
			want++
			continue
		}
		select {
		case <-r.Ready():
		case <-time.After(10 * time.Second):
			t.Fatalf("lost wakeup: parked at %d with committed tail %v", want, l.CommittedTail())
		}
	}
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r.TryNext(); ok {
		t.Fatal("read past the last appended entry")
	}
}

// Destroying a log wakes a reader parked on its commit signal, and both
// read calls then say the log is gone instead of "nothing yet" forever.
func TestDeleteLogWakesParkedReader(t *testing.T) {
	svc := NewService(Config{})
	l, err := svc.CreateLog("a")
	if err != nil {
		t.Fatal(err)
	}
	appendData(t, l, ZeroID, "x")
	r := l.NewReader(ZeroID)
	if _, ok, err := r.TryNext(); !ok || err != nil {
		t.Fatalf("TryNext: %v %v", ok, err)
	}
	ready := r.Ready()
	select {
	case <-ready:
		t.Fatal("Ready closed on a caught-up reader")
	default:
	}
	if err := svc.DeleteLog("a"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ready:
	case <-time.After(2 * time.Second):
		t.Fatal("DeleteLog did not wake the parked reader")
	}
	if _, _, err := r.TryNext(); !errors.Is(err, ErrNoSuchLog) {
		t.Fatalf("TryNext on a destroyed log: %v", err)
	}
}

// The log pushes to caught-up subscribers at its own cadence, on its own
// clock: a burst of commits schedules one wake-up, which arrives notifyEvery
// later and lets the reader drain the whole burst; a reader that is behind
// never waits for it.
func TestReadyWakesOncePerBurst(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	l, err := NewService(Config{Clock: sim}).CreateLog("a")
	if err != nil {
		t.Fatal(err)
	}
	r := l.NewReader(ZeroID)
	ready := r.Ready()
	const burst = 50
	after := ZeroID
	for i := 0; i < burst; i++ {
		after = appendData(t, l, after, "x")
	}
	select {
	case <-ready:
		t.Fatal("parked reader woken before the log's clock moved")
	default:
	}
	if n := sim.PendingWaiters(); n != 1 {
		t.Fatalf("%d wake-ups scheduled for one burst, want 1", n)
	}
	select {
	case <-l.NewReader(ZeroID).Ready():
	default:
		t.Fatal("Ready not closed for a reader behind the committed tail")
	}
	sim.Advance(notifyEvery)
	select {
	case <-ready:
	case <-time.After(2 * time.Second):
		t.Fatal("scheduled wake-up never arrived")
	}
	for i := 0; i < burst; i++ {
		if _, ok, err := r.TryNext(); !ok || err != nil {
			t.Fatalf("entry %d of the burst: ok=%v err=%v", i+1, ok, err)
		}
	}
}
