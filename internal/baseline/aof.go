package baseline

import (
	"bytes"
	"sync"
	"time"

	"memorydb/internal/clock"
)

// FsyncMode selects the AOF durability policy (§2.2.1).
type FsyncMode int

// AOF fsync policies, mirroring Redis appendfsync.
const (
	// FsyncAlways fsyncs on every append: local durability at the cost
	// of adding the fsync latency to every write (effectively
	// linearizing the single node).
	FsyncAlways FsyncMode = iota
	// FsyncEverySec fsyncs once per second: up to one second of
	// acknowledged writes can be lost on power failure.
	FsyncEverySec
	// FsyncNo never fsyncs explicitly; the OS flushes eventually.
	FsyncNo
)

// AOF is an append-only file of the replication effect stream. Storage is
// an in-memory buffer split into a synced (durable) prefix and an
// unsynced tail, which is exactly the distinction that matters for
// crash-recovery semantics.
type AOF struct {
	Mode FsyncMode
	// FsyncLatency models the disk fsync cost paid by FsyncAlways on the
	// write path.
	FsyncLatency time.Duration
	Clock        clock.Clock

	mu       sync.Mutex
	synced   bytes.Buffer
	unsynced bytes.Buffer
	lastSync time.Time
	appends  int64
	fsyncs   int64
}

// Append records one replication record according to the fsync policy.
func (a *AOF) Append(payload []byte) {
	a.mu.Lock()
	a.unsynced.Write(payload)
	a.appends++
	switch a.Mode {
	case FsyncAlways:
		a.fsyncLocked()
		a.mu.Unlock()
		if a.FsyncLatency > 0 {
			a.Clock.Sleep(a.FsyncLatency)
		}
		return
	case FsyncEverySec:
		if a.Clock.Now().Sub(a.lastSync) >= time.Second {
			a.fsyncLocked()
		}
	case FsyncNo:
		// Model the OS flushing after 30s of dirtiness.
		if a.Clock.Now().Sub(a.lastSync) >= 30*time.Second {
			a.fsyncLocked()
		}
	}
	a.mu.Unlock()
}

func (a *AOF) fsyncLocked() {
	a.synced.Write(a.unsynced.Bytes())
	a.unsynced.Reset()
	a.lastSync = a.Clock.Now()
	a.fsyncs++
}

// Stats returns (appends, fsyncs).
func (a *AOF) Stats() (int64, int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.appends, a.fsyncs
}
