package txlog

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/netsim"
)

// Property: under arbitrary interleavings of appends from multiple
// writers each using its own view of the tail, the committed log is a
// single totally ordered sequence with no gaps and exactly one entry per
// successful append.
func TestQuickSingleTotalOrder(t *testing.T) {
	f := func(writerOps [4]uint8) bool {
		svc := NewService(Config{})
		l, _ := svc.CreateLog("q")
		ctx := context.Background()
		var mu sync.Mutex
		successes := 0
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			ops := int(writerOps[w]%8) + 1
			wg.Add(1)
			go func(w, ops int) {
				defer wg.Done()
				after := ZeroID
				for i := 0; i < ops; i++ {
					id, err := l.Append(ctx, after, Entry{Type: EntryData, Payload: []byte{byte(w)}})
					if err == nil {
						after = id
						mu.Lock()
						successes++
						mu.Unlock()
					} else if errors.Is(err, ErrConditionFailed) {
						// Refresh the view and retry from the real tail,
						// like a campaigning replica would.
						after = l.CommittedTail()
					} else {
						return
					}
				}
			}(w, ops)
		}
		wg.Wait()
		tail := l.CommittedTail()
		if tail.Seq != uint64(successes) {
			return false
		}
		// Every committed entry is readable, in sequence, exactly once.
		r := l.NewReader(ZeroID)
		for seq := uint64(1); seq <= tail.Seq; seq++ {
			e, ok, err := r.TryNext()
			if err != nil || !ok || e.ID.Seq != seq {
				return false
			}
		}
		_, ok, _ := r.TryNext()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: under any interleaving of pipelined appends and clock advances,
// with jittered per-zone latencies, the commit rounds are indistinguishable
// from the model — entry k is due at its append time plus the second fastest of
// three zone draws and commits at max(due_1 … due_k). After every step the
// committed tail is exactly the model's prefix, a Pending is complete iff it
// is inside it (with nil), checksums and zone copies are the sequential
// fold; truncating what is left fails the rest with ErrTruncated. A Pending
// completed twice would panic on its closed channel.
func TestQuickCommitterMatchesModel(t *testing.T) {
	const lo, hi = time.Millisecond, 20 * time.Millisecond
	f := func(seed int64, steps []uint8) bool {
		sim := clock.NewSim(time.Unix(0, 0))
		svc := NewService(Config{Clock: sim, CommitLatency: netsim.NewUniform(lo, hi, seed)})
		l, _ := svc.CreateLog("q")
		defer svc.DeleteLog("q")
		twin := netsim.NewUniform(lo, hi, seed)
		var (
			now      time.Duration
			commitAt []time.Duration // model: when entry i+1 commits; non-decreasing
			sums     []uint64        // model: running checksum after entry i+1
			pendings []*Pending
		)
		for _, s := range steps {
			if s&1 == 0 {
				draws := []time.Duration{twin.Sample(), twin.Sample(), twin.Sample()}
				sort.Slice(draws, func(i, j int) bool { return draws[i] < draws[j] })
				at, sum := now+draws[1], uint64(0)
				if n := len(commitAt); n > 0 {
					at, sum = max(at, commitAt[n-1]), sums[n-1]
				}
				commitAt, sums = append(commitAt, at), append(sums, ChainChecksum(sum, []byte{s}))
				p, err := l.StartAppend(EntryID{Seq: uint64(len(pendings))}, Entry{Type: EntryData, Payload: []byte{s}})
				if err != nil {
					return false
				}
				pendings = append(pendings, p)
			} else {
				d := time.Duration(s) * 100 * time.Microsecond
				now += d
				sim.Advance(d)
			}
			want := sort.Search(len(commitAt), func(i int) bool { return commitAt[i] > now })
			// The step has committed what it made due: the watermark is
			// where the model says, and one timer is armed for the head's
			// due time (none while nothing is in flight).
			armed := 0
			if want < len(pendings) {
				armed = 1
			}
			if got := int(l.CommittedTail().Seq); got != want || sim.PendingWaiters() != armed {
				t.Logf("committed %d with %d timers armed, model says %d and %d", got, sim.PendingWaiters(), want, armed)
				return false
			}
			for i, p := range pendings {
				if i < want {
					<-p.done
					if p.err != nil {
						return false
					}
					continue
				}
				select {
				case <-p.done:
					return false
				default:
				}
			}
			if want > 0 {
				if sum, err := l.ChecksumAt(EntryID{Seq: uint64(want)}); err != nil || sum != sums[want-1] {
					return false
				}
			}
			if l.AZCopies() != int64(3*want) {
				return false
			}
		}
		committed := int(l.CommittedTail().Seq)
		if _, truncated := l.RecoverChain(); truncated != len(pendings)-committed {
			return false
		}
		for _, p := range pendings[committed:] {
			<-p.done
			if !errors.Is(p.err, ErrTruncated) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the running checksum equals a fold of ChainChecksum over the
// data payloads in commit order, for any payload set.
func TestQuickChecksumFold(t *testing.T) {
	f := func(payloads [][]byte) bool {
		if len(payloads) > 50 {
			payloads = payloads[:50]
		}
		svc := NewService(Config{})
		l, _ := svc.CreateLog("q")
		ctx := context.Background()
		after := ZeroID
		want := uint64(0)
		for _, p := range payloads {
			id, err := l.Append(ctx, after, Entry{Type: EntryData, Payload: p})
			if err != nil {
				return false
			}
			after = id
			want = ChainChecksum(want, p)
		}
		_, got := l.RunningChecksum()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: trimming at any committed position preserves ChecksumAt for
// every retained position.
func TestQuickTrimPreservesChecksums(t *testing.T) {
	f := func(n, cut uint8) bool {
		entries := int(n%20) + 2
		svc := NewService(Config{})
		l, _ := svc.CreateLog("q")
		ctx := context.Background()
		after := ZeroID
		sums := make(map[uint64]uint64)
		for i := 0; i < entries; i++ {
			id, err := l.Append(ctx, after, Entry{Type: EntryData, Payload: []byte{byte(i)}})
			if err != nil {
				return false
			}
			after = id
			s, err := l.ChecksumAt(id)
			if err != nil {
				return false
			}
			sums[id.Seq] = s
		}
		trimAt := uint64(int(cut)%entries) + 1
		l.Trim(EntryID{Seq: trimAt})
		for seq := trimAt; seq <= uint64(entries); seq++ {
			got, err := l.ChecksumAt(EntryID{Seq: seq})
			if err != nil || got != sums[seq] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
