package store

import "math"

// ZSet is a sorted set: members ordered by (score, member) implemented as
// a skiplist plus a member→score dictionary, mirroring Redis's design. A
// member costs its bytes twice, once in each, and zsetEntry.
type ZSet struct {
	aggregate
	dict map[string]float64
	sl   *skiplist
	rng  splitmix64
}

// NewZSet returns an empty sorted set. Skiplist level coin flips come from
// the set's own fixed-seed generator, so data structure shape is
// reproducible in tests and sets owned by different workloops share
// nothing.
func NewZSet() *ZSet {
	return &ZSet{
		dict: make(map[string]float64),
		sl:   newSkiplist(),
		rng:  0x5eed,
	}
}

// splitmix64 is an 8-byte pseudo-random generator (Steele, Lea and Flood's
// SplitMix64): all a skiplist's level coin flips need.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Len returns the cardinality.
func (z *ZSet) Len() int { return len(z.dict) }

const zsetEntry = 96

// Score returns the score of member.
func (z *ZSet) Score(member string) (float64, bool) {
	s, ok := z.dict[member]
	return s, ok
}

// Add inserts or updates member with score. Returns true if the member was
// newly added (false for an update).
func (z *ZSet) Add(member string, score float64) bool {
	if old, ok := z.dict[member]; ok {
		if old != score {
			z.sl.delete(old, member)
			z.sl.insert(score, member, &z.rng)
			z.dict[member] = score
		}
		return false
	}
	z.dict[member] = score
	z.sl.insert(score, member, &z.rng)
	z.charge(int64(len(member))*2 + zsetEntry)
	return true
}

// IncrBy adds delta to member's score (creating it at delta), returning
// the new score.
func (z *ZSet) IncrBy(member string, delta float64) float64 {
	s := z.dict[member] + delta
	z.Add(member, s)
	return s
}

// Remove deletes member; reports whether it was present.
func (z *ZSet) Remove(member string) bool {
	s, ok := z.dict[member]
	if !ok {
		return false
	}
	delete(z.dict, member)
	z.sl.delete(s, member)
	z.charge(-int64(len(member))*2 - zsetEntry)
	return true
}

// Rank returns the 0-based ascending rank of member.
func (z *ZSet) Rank(member string) (int, bool) {
	s, ok := z.dict[member]
	if !ok {
		return 0, false
	}
	return z.sl.rank(s, member), true
}

// Entry is a member/score pair.
type Entry struct {
	Member string
	Score  float64
}

// Range returns members with ascending ranks in [start, stop] (inclusive,
// negative indices count from the end, like ZRANGE).
func (z *ZSet) Range(start, stop int) []Entry {
	n := z.Len()
	start, stop, ok := clampRange(start, stop, n)
	if !ok {
		return nil
	}
	return z.sl.rangeByRank(start, stop)
}

// RevRange returns members with descending ranks in [start, stop].
func (z *ZSet) RevRange(start, stop int) []Entry {
	n := z.Len()
	start, stop, ok := clampRange(start, stop, n)
	if !ok {
		return nil
	}
	asc := z.sl.rangeByRank(n-1-stop, n-1-start)
	for i, j := 0, len(asc)-1; i < j; i, j = i+1, j-1 {
		asc[i], asc[j] = asc[j], asc[i]
	}
	return asc
}

// ScoreRange selects members with min<=score<=max (exclusivity flags honor
// ZRANGEBYSCORE's "(" syntax). limit<0 means unlimited; offset skips.
func (z *ZSet) ScoreRange(min, max float64, minEx, maxEx bool, offset, limit int) []Entry {
	var out []Entry
	z.sl.ascend(min, minEx, func(e Entry) bool {
		if e.Score > max || (maxEx && e.Score == max) {
			return false
		}
		if offset > 0 {
			offset--
			return true
		}
		out = append(out, e)
		return limit < 0 || len(out) < limit
	})
	return out
}

// Count returns the number of members with scores in the given range.
func (z *ZSet) Count(min, max float64, minEx, maxEx bool) int {
	n := 0
	z.sl.ascend(min, minEx, func(e Entry) bool {
		if e.Score > max || (maxEx && e.Score == max) {
			return false
		}
		n++
		return true
	})
	return n
}

// PopMin removes and returns up to count lowest-ranked entries.
func (z *ZSet) PopMin(count int) []Entry {
	if count > z.Len() {
		count = z.Len()
	}
	if count <= 0 {
		return nil
	}
	es := z.sl.rangeByRank(0, count-1)
	for _, e := range es {
		z.Remove(e.Member)
	}
	return es
}

// PopMax removes and returns up to count highest-ranked entries.
func (z *ZSet) PopMax(count int) []Entry {
	n := z.Len()
	if count > n {
		count = n
	}
	if count <= 0 {
		return nil
	}
	es := z.sl.rangeByRank(n-count, n-1)
	for i, j := 0, len(es)-1; i < j; i, j = i+1, j-1 {
		es[i], es[j] = es[j], es[i]
	}
	for _, e := range es {
		z.Remove(e.Member)
	}
	return es
}

func clampRange(start, stop, n int) (int, int, bool) {
	if start < 0 {
		start += n
	}
	if stop < 0 {
		stop += n
	}
	if start < 0 {
		start = 0
	}
	if stop >= n {
		stop = n - 1
	}
	if n == 0 || start > stop || start >= n {
		return 0, 0, false
	}
	return start, stop, true
}

// skiplist implements the ordered index with per-level span counters so
// rank queries are O(log n).
const maxLevel = 32

type slNode struct {
	entry Entry
	next  []slLink
}

type slLink struct {
	to   *slNode
	span int // number of entries skipped by following this link
}

type skiplist struct {
	head   *slNode
	level  int
	length int
}

func newSkiplist() *skiplist {
	return &skiplist{
		head:  &slNode{next: make([]slLink, maxLevel)},
		level: 1,
	}
}

func entryLess(s1 float64, m1 string, s2 float64, m2 string) bool {
	if s1 != s2 {
		return s1 < s2
	}
	return m1 < m2
}

// randomLevel draws a level with P(level > l) = 4^-l, two bits a flip.
func randomLevel(rng *splitmix64) int {
	lvl := 1
	for r := rng.next(); lvl < maxLevel && r&3 == 0; r >>= 2 {
		lvl++
	}
	return lvl
}

func (sl *skiplist) insert(score float64, member string, rng *splitmix64) {
	var update [maxLevel]*slNode
	var rankAt [maxLevel]int
	x := sl.head
	for i := sl.level - 1; i >= 0; i-- {
		if i == sl.level-1 {
			rankAt[i] = 0
		} else {
			rankAt[i] = rankAt[i+1]
		}
		for x.next[i].to != nil && entryLess(x.next[i].to.entry.Score, x.next[i].to.entry.Member, score, member) {
			rankAt[i] += x.next[i].span
			x = x.next[i].to
		}
		update[i] = x
	}
	lvl := randomLevel(rng)
	if lvl > sl.level {
		for i := sl.level; i < lvl; i++ {
			rankAt[i] = 0
			update[i] = sl.head
			update[i].next[i].span = sl.length
		}
		sl.level = lvl
	}
	n := &slNode{entry: Entry{Member: member, Score: score}, next: make([]slLink, lvl)}
	for i := 0; i < lvl; i++ {
		n.next[i].to = update[i].next[i].to
		update[i].next[i].to = n
		n.next[i].span = update[i].next[i].span - (rankAt[0] - rankAt[i])
		update[i].next[i].span = rankAt[0] - rankAt[i] + 1
	}
	for i := lvl; i < sl.level; i++ {
		update[i].next[i].span++
	}
	sl.length++
}

func (sl *skiplist) delete(score float64, member string) {
	var update [maxLevel]*slNode
	x := sl.head
	for i := sl.level - 1; i >= 0; i-- {
		for x.next[i].to != nil && entryLess(x.next[i].to.entry.Score, x.next[i].to.entry.Member, score, member) {
			x = x.next[i].to
		}
		update[i] = x
	}
	target := update[0].next[0].to
	if target == nil || target.entry.Score != score || target.entry.Member != member {
		return
	}
	for i := 0; i < sl.level; i++ {
		if update[i].next[i].to == target {
			update[i].next[i].span += target.next[i].span - 1
			update[i].next[i].to = target.next[i].to
		} else {
			update[i].next[i].span--
		}
	}
	for sl.level > 1 && sl.head.next[sl.level-1].to == nil {
		sl.level--
	}
	sl.length--
}

// rank returns the 0-based rank of (score, member), which must exist.
func (sl *skiplist) rank(score float64, member string) int {
	x := sl.head
	r := 0
	for i := sl.level - 1; i >= 0; i-- {
		for x.next[i].to != nil && !entryLess(score, member, x.next[i].to.entry.Score, x.next[i].to.entry.Member) {
			r += x.next[i].span
			x = x.next[i].to
		}
	}
	return r - 1
}

// rangeByRank returns entries with ranks in [start, stop], both valid.
func (sl *skiplist) rangeByRank(start, stop int) []Entry {
	out := make([]Entry, 0, stop-start+1)
	x := sl.head
	r := -1
	for i := sl.level - 1; i >= 0; i-- {
		for x.next[i].to != nil && r+x.next[i].span < start {
			r += x.next[i].span
			x = x.next[i].to
		}
	}
	x = x.next[0].to
	r++
	for x != nil && r <= stop {
		out = append(out, x.entry)
		x = x.next[0].to
		r++
	}
	return out
}

// ascend walks entries with score >= min (or > min when minEx) in order,
// until fn returns false.
func (sl *skiplist) ascend(min float64, minEx bool, fn func(Entry) bool) {
	x := sl.head
	for i := sl.level - 1; i >= 0; i-- {
		for x.next[i].to != nil {
			s := x.next[i].to.entry.Score
			if s < min || (minEx && s == min) {
				x = x.next[i].to
				continue
			}
			break
		}
	}
	for x = x.next[0].to; x != nil; x = x.next[0].to {
		if !fn(x.entry) {
			return
		}
	}
}

// NegInf and PosInf are the score range bounds accepted by ZRANGEBYSCORE.
var (
	NegInf = math.Inf(-1)
	PosInf = math.Inf(1)
)
