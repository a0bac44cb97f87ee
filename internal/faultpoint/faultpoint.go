// Package faultpoint is the one way a failure is injected. The critical
// write paths (workloop appends, group-commit flushes, reply release,
// lease renewal, off-box snapshot build/upload), the log service (whole
// service, each zone's acknowledgements), S3 requests and a node's link to
// the log each consult a named fault site before proceeding; a Registry
// decides, per hit, whether the site should crash the process, delay,
// fail with a transient error, or corrupt the bytes in flight.
//
// A probability-1 plan of one kind is a standing fault: a level, such as
// a zone outage or a partition, rather than an event. It fires on every
// hit without drawing from the seeded stream, so raising one leaves every
// other site's fixed-seed schedule where it was, and Standing reads it
// without counting a hit.
//
// Decisions are seedable (fixed-seed schedules reproduce exactly) and the
// registry keeps per-site hit/fired accounting, which is how the crash
// harness proves every registered site was actually exercised by a
// schedule. A nil *Registry is a valid no-op: production code paths call
// Hit unconditionally and pay only a nil check.
//
// Interpretation of a decision is owned by the host:
//   - a node treats Crash as process death at that instant (it freezes in
//     place — no cleanup, no replies, in-flight appends left in limbo);
//   - the off-box snapshotter treats Crash as the ephemeral cluster dying
//     (the run aborts);
//   - the log service and S3 treat Error as unavailability and Delay as
//     latency, and ignore Crash;
//   - Corrupt is only meaningful at byte-producing sites (snapshot build
//     and upload, the log's stored records and segment footers) and is
//     ignored elsewhere.
package faultpoint

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind is the action a fault site takes when a decision fires.
type Kind uint8

// Fault kinds.
const (
	// None: proceed normally (the common case).
	None Kind = iota
	// Crash: the process dies at this instant.
	Crash
	// Delay: the operation stalls for Decision.Delay before proceeding.
	Delay
	// Error: the operation fails with a transient error.
	Error
	// Corrupt: the bytes produced at this site are damaged (flipped or
	// truncated, site-specific).
	Corrupt
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Delay:
		return "delay"
	case Error:
		return "error"
	case Corrupt:
		return "corrupt"
	}
	return "unknown"
}

// ParseKind parses a kind name.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "crash":
		return Crash, nil
	case "delay":
		return Delay, nil
	case "error":
		return Error, nil
	case "corrupt":
		return Corrupt, nil
	}
	return None, fmt.Errorf("faultpoint: unknown kind %q", s)
}

// Decision is what a site must do for one hit.
type Decision struct {
	Kind  Kind
	Delay time.Duration
}

// Canonical site names instrumented across the write and snapshot paths.
// The crash harness asserts every one of these is hit under its schedule.
const (
	// SiteAppendPre fires before a transaction-log conditional append is
	// issued (workloop side: data flushes, checksums, renewals, control).
	SiteAppendPre = "core.append.pre"
	// SiteAppendPost fires after the log assigned the entry but before the
	// node records the new tail — a crash here leaves a durable entry the
	// dead node never knew about.
	SiteAppendPost = "core.append.post"
	// SiteFlushPre fires at the head of a group-commit flush, before the
	// batched entry is handed to the log.
	SiteFlushPre = "core.flush.pre"
	// SiteFlushPost fires after the flushed entry reached quorum but
	// before any reply is released — the committed-but-unacknowledged
	// window.
	SiteFlushPost = "core.flush.post"
	// SiteReplyRelease fires immediately before the workloop releases the
	// replies an answered entry holds. An Error at it, or at SiteFlushPost,
	// has nothing left to fail and is ignored.
	SiteReplyRelease = "core.reply.release"
	// SiteRenew fires before a lease-renewal append.
	SiteRenew = "core.renew"
	// SiteSnapBuild fires after an off-box snapshot is serialized but
	// before upload; Corrupt flips a byte (silent bit rot in the build).
	SiteSnapBuild = "snapshot.build"
	// SiteSnapUpload fires at the upload step; Corrupt truncates the
	// object — the torn-write case (§7.2.1).
	SiteSnapUpload = "snapshot.upload"
	// SiteS3Put fires at the S3 PUT issued by the off-box run.
	SiteS3Put = "s3.put"
	// SiteLogSealPre fires before a closed log segment's footer is
	// computed; Error/Crash defers the seal (retried on a later commit),
	// Delay stalls the sealer.
	SiteLogSealPre = "txlog.seal.pre"
	// SiteLogSealPost fires after a segment sealed durably.
	SiteLogSealPost = "txlog.seal.post"
	// SiteLogTrimPre fires at the head of a Trim call; Error/Crash aborts
	// the trim with no state change (the coordinator retries next tick).
	SiteLogTrimPre = "txlog.trim.pre"
	// SiteLogTrimPost fires after a Trim call completed (whether or not
	// any segment was dropped).
	SiteLogTrimPost = "txlog.trim.post"
	// SiteLogCorruptRecord fires on every data append; Corrupt silently
	// flips a byte of the stored payload while keeping the record's CRC —
	// the bit-rot case read-time verification must catch.
	SiteLogCorruptRecord = "txlog.corrupt_record"
	// SiteDeltaBuild fires after the forkless builder serializes a delta
	// snapshot but before upload; Corrupt flips a byte (bit rot in the
	// delta image).
	SiteDeltaBuild = "snapshot.delta.build"
	// SiteDeltaUpload fires at the delta's S3 PUT; Corrupt truncates the
	// object (a torn delta in the middle of a chain).
	SiteDeltaUpload = "snapshot.delta.upload"
	// SiteCompact fires when the builder compacts a full+delta chain into
	// a new full snapshot; Crash kills the builder mid-compaction.
	SiteCompact = "snapshot.compact"
	// SiteBuilderLag fires on every builder lag check against the log's
	// trim horizon; Delay stalls the builder (inducing lag), Error forces
	// a re-bootstrap from the latest chain.
	SiteBuilderLag = "builder.lag"
	// SiteLogUnavailable fires on every log append; Error is a whole-service
	// outage: appends fail, and while it stands reads fail too.
	SiteLogUnavailable = "txlog.unavailable"
	// SiteNodePartition fires on every append a node starts; Error fails
	// that append. A standing Error cuts the node off from the log service
	// (appends, reads, campaigns and resyncs fail; clients still reach it).
	SiteNodePartition = "node.partition"
	// SiteS3Request fires on every S3 Put/Get/Delete/List; Error fails the
	// request with s3.ErrUnavailable, Delay is its latency.
	SiteS3Request = "s3.request"
)

// ZoneAckSite names the acknowledgement site of the log's zone i (0-based),
// "txlog.az-<i+1>.ack". It fires on every append, once per zone: Error
// drops the zone's acknowledgement (standing: the zone is down; probability
// p < 1: it is flaky), Delay adds to it (the zone is slow).
func ZoneAckSite(i int) string { return "txlog.az-" + strconv.Itoa(i+1) + ".ack" }

// AllSites returns the canonical instrumented sites, in a stable order.
// The zone sites are those of the default three-zone log service.
func AllSites() []string {
	return []string{
		SiteAppendPre, SiteAppendPost,
		SiteFlushPre, SiteFlushPost,
		SiteReplyRelease, SiteRenew,
		SiteSnapBuild, SiteSnapUpload, SiteS3Put,
		SiteLogSealPre, SiteLogSealPost,
		SiteLogTrimPre, SiteLogTrimPost,
		SiteLogCorruptRecord,
		SiteDeltaBuild, SiteDeltaUpload,
		SiteCompact, SiteBuilderLag,
		SiteLogUnavailable, ZoneAckSite(0), ZoneAckSite(1), ZoneAckSite(2),
		SiteNodePartition, SiteS3Request,
	}
}

// armed is a one-shot fault scheduled to fire once site hits exceed a
// threshold.
type armed struct {
	kind  Kind
	after int64 // fire on the first hit with count > after
}

// site is per-site accounting plus its active schedule.
type site struct {
	hits  int64
	fired map[Kind]int64
	armed []armed
	// Probabilistic plan: each hit fires one of kinds with probability
	// prob (one-shots take precedence).
	prob  float64
	kinds []Kind
	delay time.Duration
	// announced is set once a standing plan's first fire has reached the
	// observer: a level is reported when it is first met, not per hit.
	announced bool
}

// standing reports whether the plan fires on every hit with one kind.
func (s *site) standing() bool { return s.prob >= 1 && len(s.kinds) == 1 }

// Registry holds the named fault sites of one host (a node, the log
// service, an S3 store, an off-box snapshot runner — or one process that
// hands a single registry to all of them) and decides, deterministically
// from its seed, what each hit does.
type Registry struct {
	mu       sync.Mutex
	rng      *rand.Rand
	sites    map[string]*site
	observer func(site string, k Kind)
}

// SetObserver installs a callback invoked after every fault decision
// that actually fires (Kind != None) — for a standing plan, after its
// first fire only — outside the registry lock. The
// flight recorder uses it to put injected faults on the cluster
// timeline. The callback must not call back into the registry.
func (r *Registry) SetObserver(fn func(site string, k Kind)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.observer = fn
	r.mu.Unlock()
}

// New returns a registry with every canonical site pre-registered (so
// coverage accounting can see never-hit sites) and all decisions seeded.
func New(seed int64) *Registry {
	r := &Registry{rng: rand.New(rand.NewSource(seed)), sites: make(map[string]*site)}
	for _, name := range AllSites() {
		r.sites[name] = &site{fired: make(map[Kind]int64)}
	}
	return r
}

func (r *Registry) siteLocked(name string) *site {
	s, ok := r.sites[name]
	if !ok {
		s = &site{fired: make(map[Kind]int64)}
		r.sites[name] = s
	}
	return s
}

// Hit records one pass through the named site and returns the decision
// for it. Safe on a nil registry (always None) and for concurrent use.
func (r *Registry) Hit(name string) Decision {
	if r == nil {
		return Decision{}
	}
	r.mu.Lock()
	s := r.siteLocked(name)
	s.hits++
	var d Decision
	for i, a := range s.armed {
		if s.hits > a.after {
			s.armed = append(s.armed[:i], s.armed[i+1:]...)
			d = Decision{Kind: a.kind}
			break
		}
	}
	announce := true
	if d.Kind == None && s.prob > 0 && len(s.kinds) > 0 {
		if s.standing() {
			// A level: no draw, so raising it shifts no other site's schedule.
			d = Decision{Kind: s.kinds[0], Delay: s.delay}
			announce, s.announced = !s.announced, true
		} else if r.rng.Float64() < s.prob {
			d = Decision{Kind: s.kinds[r.rng.Intn(len(s.kinds))], Delay: s.delay}
		}
	}
	if d.Kind != None {
		s.fired[d.Kind]++
	}
	obs := r.observer
	r.mu.Unlock()
	if d.Kind != None && announce && obs != nil {
		obs(name, d.Kind)
	}
	return d
}

// Arm schedules a one-shot fault at the named site: it fires on the first
// hit after `after` more hits pass (after=0 means the very next hit).
func (r *Registry) Arm(name string, k Kind, after int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.siteLocked(name)
	s.armed = append(s.armed, armed{kind: k, after: s.hits + int64(after)})
}

// SetPlan installs a probabilistic schedule at the named site: each hit
// fires one of kinds (uniformly) with probability prob. delay applies to
// Delay decisions. prob=0 clears the plan; prob=1 with one kind is a
// standing fault.
func (r *Registry) SetPlan(name string, prob float64, delay time.Duration, kinds ...Kind) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.siteLocked(name)
	s.prob = prob
	s.kinds = append([]Kind(nil), kinds...)
	s.delay = delay
	s.announced = false
}

// Standing returns the kind a standing plan at the named site fires on
// every hit, or None when the site has no standing plan. It counts no hit
// and draws nothing: it is how a level (a zone down, a partition) is read.
func (r *Registry) Standing(name string) Kind {
	if r == nil {
		return None
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sites[name]; ok && s.standing() {
		return s.kinds[0]
	}
	return None
}

// Hits returns how many times the named site was passed.
func (r *Registry) Hits(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sites[name]; ok {
		return s.hits
	}
	return 0
}

// Fired returns how many decisions of kind k the named site has fired.
func (r *Registry) Fired(name string, k Kind) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sites[name]; ok {
		return s.fired[k]
	}
	return 0
}

// FlipByte returns a copy of b with one seeded byte flipped — the silent
// bit-rot corruption a body checksum must catch.
func (r *Registry) FlipByte(b []byte) []byte {
	cp := append([]byte(nil), b...)
	if len(cp) == 0 {
		return cp
	}
	r.mu.Lock()
	i := r.rng.Intn(len(cp))
	r.mu.Unlock()
	cp[i] ^= 0xFF
	return cp
}

// TornWrite returns a seeded strict prefix of b — the torn-write
// truncation of an interrupted upload.
func (r *Registry) TornWrite(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	r.mu.Lock()
	n := r.rng.Intn(len(b))
	r.mu.Unlock()
	return append([]byte(nil), b[:n]...)
}

// Parse builds a registry from a ;- or ,-separated spec, one clause per
// site:
//
//	site=kind            one-shot, fires on the next hit
//	site=kind@N          one-shot, fires after N more hits
//	site=error:P         probabilistic: each hit errors with prob P
//	site=delay:DUR:P     probabilistic: each hit stalls DUR with prob P
//
// e.g. "core.flush.pre=crash@3;core.append.pre=error:0.05;core.renew=delay:2ms:0.1".
// This is the grammar behind the MEMORYDB_FAULTPOINTS environment knob.
func Parse(spec string, seed int64) (*Registry, error) {
	r := New(seed)
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return r, nil
	}
	for _, clause := range strings.FieldsFunc(spec, func(c rune) bool { return c == ';' || c == ',' }) {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rhs, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faultpoint: bad clause %q (want site=action)", clause)
		}
		name = strings.TrimSpace(name)
		parts := strings.Split(rhs, ":")
		kindStr, after := parts[0], 0
		if ks, n, ok := strings.Cut(kindStr, "@"); ok {
			v, err := strconv.Atoi(n)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("faultpoint: bad @count in %q", clause)
			}
			kindStr, after = ks, v
		}
		kind, err := ParseKind(kindStr)
		if err != nil {
			return nil, err
		}
		switch {
		case len(parts) == 1:
			r.Arm(name, kind, after)
		case kind == Error && len(parts) == 2:
			p, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("faultpoint: bad probability in %q", clause)
			}
			r.SetPlan(name, p, 0, Error)
		case kind == Delay && len(parts) == 3:
			d, err := time.ParseDuration(parts[1])
			if err != nil {
				return nil, fmt.Errorf("faultpoint: bad duration in %q", clause)
			}
			p, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("faultpoint: bad probability in %q", clause)
			}
			r.SetPlan(name, p, d, Delay)
		default:
			return nil, fmt.Errorf("faultpoint: bad clause %q", clause)
		}
	}
	return r, nil
}
