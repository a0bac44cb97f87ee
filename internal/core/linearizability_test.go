package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"memorydb/internal/election"
	"memorydb/internal/lin"
	"memorydb/internal/netsim"
)

// TestLinearizableUnderConcurrency is the §7.2.2 consistency test: many
// clients run biased SET/GET workloads against a MemoryDB primary with
// realistic commit latency, and the recorded concurrent history is fed to
// the linearizability checker.
func TestLinearizableUnderConcurrency(t *testing.T) {
	for _, mode := range batchModes {
		t.Run(mode.name, func(t *testing.T) { linearizableUnderConcurrency(t, mode.window) })
	}
}

func linearizableUnderConcurrency(t *testing.T, window int) {
	svc := testService(t, netsim.NewUniform(200*time.Microsecond, 2*time.Millisecond, 11))
	log, _ := svc.CreateLog("shard-1")
	n := testNodeWindow(t, "node-a", log, nil, window)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	rec := lin.NewRecorder()
	ctx := context.Background()
	var wg sync.WaitGroup
	const clients = 6
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(clientID int) {
			defer wg.Done()
			gen := lin.NewGenerator(lin.GenConfig{Seed: int64(clientID), Keys: 3, WriteRatio: 0.5})
			for i := 0; i < 10; i++ {
				key, in, args := gen.Next(clientID*1000 + i)
				argv := make([][]byte, len(args))
				for j, a := range args {
					argv[j] = []byte(a)
				}
				call := rec.Invoke()
				v, err := n.Do(ctx, argv)
				out := lin.Output{}
				if err != nil || v.IsError() {
					out.Err = true
				} else if in.Kind == "get" {
					out.Value = v.Text()
				}
				rec.Complete(clientID, key, in, out, call)
			}
		}(c)
	}
	wg.Wait()
	if ok, badKey := lin.Check(lin.RegisterModel{}, rec.History()); !ok {
		t.Fatalf("history not linearizable (key %s)", badKey)
	}
}

// TestLinearizableAcrossFailover checks the harder property: histories
// spanning a primary crash and replica promotion stay linearizable,
// because only fully caught-up replicas can win and unacknowledged writes
// are reported as errors (ambiguous), never as successes that vanish.
func TestLinearizableAcrossFailover(t *testing.T) {
	for _, mode := range batchModes {
		t.Run(mode.name, func(t *testing.T) { linearizableAcrossFailover(t, mode.window) })
	}
}

func linearizableAcrossFailover(t *testing.T, window int) {
	svc := testService(t, netsim.Fixed(300*time.Microsecond))
	log, _ := svc.CreateLog("shard-1")
	primary := testNodeWindow(t, "node-a", log, nil, window)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	replica := testNodeWindow(t, "node-b", log, nil, window)
	waitRole(t, replica, election.RoleReplica, time.Second)

	rec := lin.NewRecorder()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	const clients = 4
	const opsPerClient = 40 // 4×40 over 4 keys stays under the checker's per-key bound
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(clientID int) {
			defer wg.Done()
			gen := lin.NewGenerator(lin.GenConfig{Seed: int64(clientID) + 100, Keys: 4, WriteRatio: 0.6})
			for i := 0; i < opsPerClient; i++ {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(2 * time.Millisecond) // spread ops across the failover window
				key, in, args := gen.Next(clientID*10000 + i)
				argv := make([][]byte, len(args))
				for j, a := range args {
					argv[j] = []byte(a)
				}
				// Route to whichever node is primary right now; during
				// the failover window operations fail (recorded as
				// ambiguous).
				target := primary
				if replica.Role() == election.RolePrimary {
					target = replica
				}
				ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
				call := rec.Invoke()
				v, err := target.Do(ctx, argv)
				cancel()
				out := lin.Output{}
				if err != nil || v.IsError() {
					out.Err = true
				} else if in.Kind == "get" {
					out.Value = v.Text()
				}
				rec.Complete(clientID, key, in, out, call)
			}
		}(c)
	}
	time.Sleep(50 * time.Millisecond)
	primary.Stop() // crash mid-workload
	waitRole(t, replica, election.RolePrimary, 3*time.Second)
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	history := rec.History()
	if len(history) < 50 {
		t.Fatalf("history too small to be meaningful: %d ops", len(history))
	}
	if ok, badKey := lin.Check(lin.RegisterModel{}, history); !ok {
		t.Fatalf("failover history not linearizable (key %s, %d ops)", badKey, len(history))
	}
}

// TestReadYourWritesGating exercises the tracker visibly: with a slow
// commit, a read issued immediately after a write must not return before
// the write is durable, and must observe it.
func TestReadYourWritesGating(t *testing.T) {
	for _, mode := range batchModes {
		t.Run(mode.name, func(t *testing.T) { readYourWritesGating(t, mode.window) })
	}
}

func readYourWritesGating(t *testing.T, window int) {
	commit := 10 * time.Millisecond
	svc := testService(t, netsim.Fixed(commit))
	log, _ := svc.CreateLog("shard-1")
	n := testNodeWindow(t, "node-a", log, nil, window)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	ctx := context.Background()
	writeDone := make(chan time.Duration, 1)
	writeIssued := time.Now()
	go func() {
		n.Do(ctx, [][]byte{[]byte("SET"), []byte("k"), []byte("v")})
		writeDone <- time.Since(writeIssued)
	}()
	time.Sleep(2 * time.Millisecond) // let the write execute (not commit)
	v, err := n.Do(ctx, [][]byte{[]byte("GET"), []byte("k")})
	// Measured from the write's issue, not the read's: however late this
	// goroutine was scheduled, a gated read cannot return before the
	// commit latency has passed since the write began.
	sinceWrite := time.Since(writeIssued)
	if err != nil {
		t.Fatal(err)
	}
	if v.Text() != "v" {
		t.Fatalf("read missed the in-flight write: %v", v)
	}
	if sinceWrite < commit {
		t.Fatalf("read returned %v after the write was issued — before the %v commit, exposing undurable data", sinceWrite, commit)
	}
	if wl := <-writeDone; wl < commit {
		t.Fatalf("write acknowledged in %v, before the %v commit latency", wl, commit)
	}
	// A read of an unrelated key is NOT gated (key-level hazards).
	n.Do(ctx, [][]byte{[]byte("SET"), []byte("other"), []byte("x")})
	go n.Do(ctx, [][]byte{[]byte("SET"), []byte("k"), []byte("v2")})
	time.Sleep(2 * time.Millisecond)
	start := time.Now()
	if _, err := n.Do(ctx, [][]byte{[]byte("GET"), []byte("other")}); err != nil {
		t.Fatal(err)
	}
	if lat := time.Since(start); lat > commit/2 {
		t.Fatalf("unrelated read gated for %v — hazards must be per key", lat)
	}
}
