package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/election"
	"memorydb/internal/faultpoint"
	"memorydb/internal/lin"
	"memorydb/internal/netsim"
	"memorydb/internal/txlog"
)

// The release rule (Config.AckOnExecute): OSS Redis answers a write once
// it executes, MemoryDB once its log entry commits (§2.2, §3.2). Nothing
// else differs: the write is appended by its turn's flush either way.

// TestAckOnExecuteLosesAnAcknowledgedWrite runs one schedule on the step
// harness under each rule: the primary executes SET a x, its flush is lost
// at core.flush.pre, the replica wins the shard, and GET a on it is nil.
// Under the Redis rule the SET was answered OK, so the history is not
// linearizable; under MemoryDB's it was answered with an error, so the SET
// may never have happened, and the history is.
func TestAckOnExecuteLosesAnAcknowledgedWrite(t *testing.T) {
	for _, ack := range []bool{false, true} {
		faults := faultpoint.New(1)
		h := newHarness(t, harnessConfig{replica: true, noObs: true, faults: faults, ackOnExecute: ack})
		faults.Arm(faultpoint.SiteFlushPre, faultpoint.Error, 0)
		set := h.do("SET", "a", "x")
		if v := h.mustReply(set, ""); v.IsError() == ack {
			t.Fatalf("ack on execute %v: SET a x = %v", ack, v)
		}
		h.failover()
		get := h.submit(h.replica, false, "GET", "a")
		if v := h.mustReply(get, ""); !v.Null {
			t.Fatalf("ack on execute %v: GET a on the new primary = %v, want nil", ack, v)
		}
		// Calls and returns are harness turns, as the explorer stamps them:
		// a write answered with an error may yet have happened, so it stays
		// open.
		setRet := int64(2*set.answered + 1)
		if set.val.IsError() {
			setRet = 1 << 60
		}
		history := []lin.Operation{
			{ClientID: 0, Key: "a", Input: lin.Input{Kind: "set", Value: "x"}, Output: lin.Output{Err: set.val.IsError()},
				Call: int64(2 * set.sent), Return: setRet},
			{ClientID: 1, Key: "a", Input: lin.Input{Kind: "get"}, Output: lin.Output{Value: ""},
				Call: int64(2 * get.sent), Return: int64(2*get.answered + 1)},
		}
		if ok, _ := lin.Check(lin.RegisterModel{}, history); ok == ack {
			t.Fatalf("ack on execute %v: lin.Check = %v on %+v", ack, ok, history)
		}
	}
}

// TestAckOnExecuteGatesOnlyWait: under the Redis rule a SET is answered
// before its entry commits, and a GET of its key and a DBSIZE are answered
// at once; WAIT alone waits, until the log commits the SET.
func TestAckOnExecuteGatesOnlyWait(t *testing.T) {
	h := newHarness(t, harnessConfig{noObs: true, ackOnExecute: true})
	h.mustReply(h.do("SET", "a", "x"), "OK")
	h.mustReply(h.do("GET", "a"), "x")
	if v := h.mustReply(h.do("DBSIZE"), ""); v.Int != 1 {
		t.Fatalf("DBSIZE = %v, want 1", v)
	}
	wait := h.do("WAIT", "1", "0")
	h.mustWait(wait)
	h.commit()
	if v := h.mustReply(wait, ""); v.Int != 2 {
		t.Fatalf("WAIT = %v, want 2", v)
	}
	if got := h.primary.Stats().BarrierOps.Load(); got != 1 {
		t.Fatalf("barrier ops = %d, want 1 (WAIT)", got)
	}
}

// BenchmarkReleaseRule times depth-1 SETs through one node on a log that
// commits 2 ms after an append, under each release rule, and reports the
// p50 and p99 a client sees. The gap between the rules is the commit wait.
func BenchmarkReleaseRule(b *testing.B) {
	for _, rule := range []struct {
		name string
		ack  bool
	}{{"MemoryDB", false}, {"Redis", true}} {
		b.Run(rule.name, func(b *testing.B) {
			svc := txlog.NewService(txlog.Config{Clock: clock.NewReal(), CommitLatency: netsim.Fixed(2 * time.Millisecond)})
			log, err := svc.CreateLog("bench")
			if err != nil {
				b.Fatal(err)
			}
			n, err := NewNode(Config{
				NodeID: "bench", ShardID: log.ShardID(), Log: log,
				Lease: 500 * time.Millisecond, Backoff: 650 * time.Millisecond,
				RenewEvery: 100 * time.Millisecond, AckOnExecute: rule.ack,
			})
			if err != nil {
				b.Fatal(err)
			}
			n.Start()
			defer n.Stop()
			for changed := n.Changed(); n.Role() != election.RolePrimary; changed = n.Changed() {
				<-changed
			}
			ctx := context.Background()
			argv := [][]byte{[]byte("SET"), []byte("k"), []byte("v")}
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range lat {
				start := time.Now()
				if _, err := n.Do(ctx, argv); err != nil {
					b.Fatal(err)
				}
				lat[i] = time.Since(start)
			}
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2])/1e3, "p50_us")
			b.ReportMetric(float64(lat[len(lat)*99/100])/1e3, "p99_us")
		})
	}
}

// TestAckOnExecuteFailoverKeepsCommittedWrites: under the Redis rule a
// failover elects at the log's tail, so a write answered and then
// committed survives it, as on MemoryDB. Only the turn's unappended
// writes can be lost.
func TestAckOnExecuteFailoverKeepsCommittedWrites(t *testing.T) {
	h := newHarness(t, harnessConfig{replica: true, noObs: true, ackOnExecute: true})
	h.mustReply(h.do("SET", "a", "x"), "OK")
	h.commit()
	for h.replica.applied.Seq < h.log.CommittedTail().Seq {
		h.apply()
	}
	h.failover()
	h.mustReply(h.submit(h.replica, false, "GET", "a"), "x")
}
