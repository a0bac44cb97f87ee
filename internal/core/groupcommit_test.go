package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"memorydb/internal/election"
	"memorydb/internal/netsim"
	"memorydb/internal/txlog"
)

// TestGroupCommitBatchesUnderLoad drives many concurrent writers against a
// primary with realistic commit latency and checks that group commit
// actually coalesces: the log must contain data entries carrying more than
// one mutation record, while every write is still individually
// acknowledged and durable.
func TestGroupCommitBatchesUnderLoad(t *testing.T) {
	svc := testService(t, netsim.Fixed(3*time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNode(t, "node-a", log, nil)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	ctx := context.Background()
	const writers = 32
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := n.Do(ctx, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("{gc}k%d", i)), []byte("v")})
			if err != nil || v.IsError() {
				t.Errorf("write %d failed: %v %v", i, v, err)
			}
		}(i)
	}
	wg.Wait()

	ls := log.Stats()
	if ls.MaxRecordsPerEntry < 2 {
		t.Fatalf("no batching observed: max records/entry = %d (stats %+v)", ls.MaxRecordsPerEntry, ls)
	}
	if ls.Records < writers {
		t.Fatalf("log saw %d records, want >= %d", ls.Records, writers)
	}
	st := n.Stats().Snapshot()
	if st.BatchFlushes == 0 || st.BatchedRecords < int64(writers) {
		t.Fatalf("node batch counters off: %+v", st)
	}
	if mean := float64(st.BatchedRecords) / float64(st.BatchFlushes); mean <= 1.0 {
		t.Fatalf("mean records/entry %.2f, want > 1 under concurrent load", mean)
	}
	// Every acknowledged write must be readable.
	for i := 0; i < writers; i++ {
		v := mustDo(t, n, "GET", fmt.Sprintf("{gc}k%d", i))
		if v.Text() != "v" {
			t.Fatalf("k%d lost after batched commit: %v", i, v)
		}
	}
}

// TestBatchSizeOneAppendsPerMutation pins the MaxBatchRecords=1 contract:
// with batching disabled every data entry carries exactly one record.
func TestBatchSizeOneAppendsPerMutation(t *testing.T) {
	svc := testService(t, netsim.Fixed(time.Millisecond))
	log, _ := svc.CreateLog("shard-1")
	n := testNodeBatch(t, "node-a", log, nil, 1)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	ctx := context.Background()
	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n.Do(ctx, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("k%d", i)), []byte("v")})
		}(i)
	}
	wg.Wait()

	ls := log.Stats()
	if ls.MaxRecordsPerEntry > 1 {
		t.Fatalf("MaxBatchRecords=1 still batched: max records/entry = %d", ls.MaxRecordsPerEntry)
	}
	if ls.Records != ls.DataAppends {
		t.Fatalf("records (%d) != data appends (%d) with batching disabled", ls.Records, ls.DataAppends)
	}
}

// testNodeDepth1 builds a node with a group-commit pipeline depth of 1
// (classic group commit): the second concurrent mutation is guaranteed to
// buffer behind the in-flight append, which is what the buffered-path
// tests need to exercise deterministically.
func testNodeDepth1(t *testing.T, id string, log *txlog.Log) *Node {
	t.Helper()
	n, err := NewNode(Config{
		NodeID:             id,
		ShardID:            log.ShardID(),
		Log:                log,
		Lease:              120 * time.Millisecond,
		Backoff:            160 * time.Millisecond,
		RenewEvery:         30 * time.Millisecond,
		ChecksumEvery:      8,
		MaxInflightAppends: 1,
	})
	if err != nil {
		t.Fatalf("NewNode(%s): %v", id, err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	return n
}

// TestReadGatedOnBufferedWrite is the read-your-writes check for the
// buffering window itself: a read that observes a mutation still sitting
// in the group-commit buffer (no log seq assigned yet) must not return
// before that mutation is durable.
func TestReadGatedOnBufferedWrite(t *testing.T) {
	commit := 10 * time.Millisecond
	svc := testService(t, netsim.Fixed(commit))
	log, _ := svc.CreateLog("shard-1")
	n := testNodeDepth1(t, "node-a", log)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	ctx := context.Background()
	// First write flushes immediately (no append in flight) and keeps the
	// pipeline busy for one commit latency...
	go n.Do(ctx, [][]byte{[]byte("SET"), []byte("{rg}pipe"), []byte("x")})
	time.Sleep(2 * time.Millisecond)
	// ...so this second write lands in the group-commit buffer.
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		n.Do(ctx, [][]byte{[]byte("SET"), []byte("{rg}buffered"), []byte("v")})
	}()
	time.Sleep(2 * time.Millisecond)

	start := time.Now()
	v, err := n.Do(ctx, [][]byte{[]byte("GET"), []byte("{rg}buffered")})
	lat := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if v.Text() != "v" {
		t.Fatalf("read missed the buffered write: %v", v)
	}
	if lat < commit/2 {
		t.Fatalf("read of a buffered key returned in %v — before the batch could commit (%v)", lat, commit)
	}
	<-writeDone

	// An unrelated key is not gated on the batch (key-level hazards).
	mustDo(t, n, "SET", "{rg}other", "x")
	go n.Do(ctx, [][]byte{[]byte("SET"), []byte("{rg}pipe"), []byte("y")})
	time.Sleep(2 * time.Millisecond)
	go n.Do(ctx, [][]byte{[]byte("SET"), []byte("{rg}buffered"), []byte("w")})
	time.Sleep(2 * time.Millisecond)
	start = time.Now()
	if _, err := n.Do(ctx, [][]byte{[]byte("GET"), []byte("{rg}other")}); err != nil {
		t.Fatal(err)
	}
	if lat := time.Since(start); lat > commit/2 {
		t.Fatalf("read of an unrelated key gated on the batch for %v", lat)
	}
}

// TestFlushFailureAbortsWholeBatch cuts the log off while mutations are
// buffered behind an in-flight append: the flush fails, so every buffered
// write must be answered with an error (never silence, never success) and
// the node must step down.
func TestFlushFailureAbortsWholeBatch(t *testing.T) {
	commit := 15 * time.Millisecond
	svc := testService(t, netsim.Fixed(commit))
	log, _ := svc.CreateLog("shard-1")
	n := testNodeDepth1(t, "node-a", log)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	ctx := context.Background()
	// Occupy the pipeline, then buffer two mutations behind it (one
	// slot, so they share a shard buffer at any shard count).
	go n.Do(ctx, [][]byte{[]byte("SET"), []byte("{fb}pipe"), []byte("x")})
	time.Sleep(2 * time.Millisecond)
	type reply struct {
		isErr bool
		err   error
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			v, err := n.Do(ctx, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("{fb}doomed%d", i)), []byte("v")})
			replies <- reply{isErr: v.IsError(), err: err}
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	// Fail appends before the in-flight entry acknowledges: the flush of
	// the buffered batch will hit the unavailable log.
	log.FailAppends(true)
	defer log.FailAppends(false)

	for i := 0; i < 2; i++ {
		select {
		case r := <-replies:
			if r.err != nil {
				t.Fatalf("buffered write returned transport error: %v", r.err)
			}
			if !r.isErr {
				t.Fatal("buffered write acknowledged although its batch never reached the log")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("buffered write reply never delivered after flush failure")
		}
	}
	// The node steps down (it may already have resynced back to replica by
	// the time we look, so check the demotion counter, not the live role).
	deadline := time.Now().Add(2 * time.Second)
	for n.Stats().Demotions.Load() == 0 || n.Role() == election.RolePrimary {
		if time.Now().After(deadline) {
			t.Fatalf("node never stepped down after flush failure (role %v, demotions %d)",
				n.Role(), n.Stats().Demotions.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGlobalReadGateAppliesToKeyedReads is the regression test for the
// read-gate condition's operator precedence: with the GlobalReadGate
// ablation enabled, a read WITH keys must still wait for all outstanding
// writes — not only keyless full-keyspace reads.
func TestGlobalReadGateAppliesToKeyedReads(t *testing.T) {
	commit := 10 * time.Millisecond
	svc := testService(t, netsim.Fixed(commit))
	log, _ := svc.CreateLog("shard-1")
	n, err := NewNode(Config{
		NodeID:         "node-a",
		ShardID:        log.ShardID(),
		Log:            log,
		Lease:          120 * time.Millisecond,
		Backoff:        160 * time.Millisecond,
		RenewEvery:     30 * time.Millisecond,
		GlobalReadGate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(n.Stop)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	ctx := context.Background()
	mustDo(t, n, "SET", "unrelated", "x")
	go n.Do(ctx, [][]byte{[]byte("SET"), []byte("hot"), []byte("v")})
	time.Sleep(2 * time.Millisecond)
	start := time.Now()
	if _, err := n.Do(ctx, [][]byte{[]byte("GET"), []byte("unrelated")}); err != nil {
		t.Fatal(err)
	}
	if lat := time.Since(start); lat < commit/2 {
		t.Fatalf("GlobalReadGate: keyed read of an unrelated key returned in %v — must wait for ALL outstanding writes (%v commit)", lat, commit)
	}
}

// TestWaitCoversBufferedWrites checks the WAIT barrier extends over
// mutations still in the group-commit buffer, which have no log seq yet.
func TestWaitCoversBufferedWrites(t *testing.T) {
	commit := 10 * time.Millisecond
	svc := testService(t, netsim.Fixed(commit))
	log, _ := svc.CreateLog("shard-1")
	n := testNodeDepth1(t, "node-a", log)
	waitRole(t, n, election.RolePrimary, 2*time.Second)

	ctx := context.Background()
	go n.Do(ctx, [][]byte{[]byte("SET"), []byte("{wb}pipe"), []byte("x")})
	time.Sleep(2 * time.Millisecond)
	go n.Do(ctx, [][]byte{[]byte("SET"), []byte("{wb}buffered"), []byte("v")})
	time.Sleep(2 * time.Millisecond)
	start := time.Now()
	v, err := n.Do(ctx, [][]byte{[]byte("WAIT"), []byte("0"), []byte("0")})
	if err != nil {
		t.Fatal(err)
	}
	if v.IsError() {
		t.Fatalf("WAIT failed: %v", v)
	}
	if lat := time.Since(start); lat < commit/2 {
		t.Fatalf("WAIT returned in %v with a mutation still buffered (commit %v)", lat, commit)
	}
}
