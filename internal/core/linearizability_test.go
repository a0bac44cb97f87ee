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
	t.Run(batchDefault, linearizableUnderConcurrency)
}

func linearizableUnderConcurrency(t *testing.T) {
	svc := testService(t, netsim.NewUniform(200*time.Microsecond, 2*time.Millisecond, 11))
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-a", log, nil)
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
func TestLinearizableAcrossFailover(t *testing.T) { t.Run(batchDefault, linearizableAcrossFailover) }

func linearizableAcrossFailover(t *testing.T) {
	svc := testService(t, netsim.Fixed(300*time.Microsecond))
	log, _ := svc.CreateLog("shard-1")
	primary := testNode(t, "node-a", log, nil)
	waitRole(t, primary, election.RolePrimary, 2*time.Second)
	replica := testNode(t, "node-b", log, nil)
	waitRole(t, replica, election.RoleReplica, time.Second)

	rec := lin.NewRecorder()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Every exit stops the clients, a failed failover too: left running,
	// they issue a command every 2 ms for the rest of the test binary.
	stopClients := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopClients()
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
	stopClients()

	history := rec.History()
	if len(history) < 50 {
		t.Fatalf("history too small to be meaningful: %d ops", len(history))
	}
	if ok, badKey := lin.Check(lin.RegisterModel{}, history); !ok {
		t.Fatalf("failover history not linearizable (key %s, %d ops)", badKey, len(history))
	}
}

// TestReadYourWritesGating exercises read gating visibly: with a slow
// commit, a read issued immediately after a write must not return before
// the write is durable, and must observe it.
func TestReadYourWritesGating(t *testing.T) { t.Run(batchDefault, readYourWritesGating) }

func readYourWritesGating(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	set := h.do("SET", "k", "v")
	get := h.do("GET", "k")
	// Until the write's entry commits, neither reply may leave the node.
	h.mustWait(set)
	h.mustWait(get)
	h.commit()
	h.mustReply(set, "OK")
	h.mustReply(get, "v")

	// A read of an unrelated key is NOT gated (key-level hazards).
	other := h.do("SET", "other", "x")
	h.commit()
	h.mustReply(other, "OK")
	h.do("SET", "k", "v2")
	h.mustReply(h.do("GET", "other"), "x")
}
