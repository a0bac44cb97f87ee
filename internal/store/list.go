package store

// List is a doubly linked list of byte-string elements, the backing
// structure for LPUSH/RPUSH et al. A deque of chunks would be closer to
// Redis's quicklist; a plain linked list preserves the same asymptotics
// for the operations we expose while staying simple. An element costs its
// bytes and listEntry, its node.
type List struct {
	aggregate
	head, tail *listNode
	length     int
}

const listEntry = 40

type listNode struct {
	val        []byte
	prev, next *listNode
}

// NewList returns an empty list.
func NewList() *List { return &List{} }

// Len returns the number of elements.
func (l *List) Len() int { return l.length }

// elemCost is what list element v costs.
func elemCost(v []byte) int64 { return int64(len(v)) + listEntry }

// PushFront prepends v.
func (l *List) PushFront(v []byte) {
	n := &listNode{val: v, next: l.head}
	if l.head != nil {
		l.head.prev = n
	} else {
		l.tail = n
	}
	l.head = n
	l.length++
	l.charge(elemCost(v))
}

// PushBack appends v.
func (l *List) PushBack(v []byte) {
	n := &listNode{val: v, prev: l.tail}
	if l.tail != nil {
		l.tail.next = n
	} else {
		l.head = n
	}
	l.tail = n
	l.length++
	l.charge(elemCost(v))
}

// PopFront removes and returns the first element.
func (l *List) PopFront() ([]byte, bool) {
	if l.head == nil {
		return nil, false
	}
	n := l.head
	l.head = n.next
	if l.head != nil {
		l.head.prev = nil
	} else {
		l.tail = nil
	}
	l.length--
	l.charge(-elemCost(n.val))
	return n.val, true
}

// PopBack removes and returns the last element.
func (l *List) PopBack() ([]byte, bool) {
	if l.tail == nil {
		return nil, false
	}
	n := l.tail
	l.tail = n.prev
	if l.tail != nil {
		l.tail.next = nil
	} else {
		l.head = nil
	}
	l.length--
	l.charge(-elemCost(n.val))
	return n.val, true
}

// Insert puts v just before (or after) the first element equal to pivot,
// reporting whether pivot was found (LINSERT semantics).
func (l *List) Insert(pivot, v []byte, before bool) bool {
	at := l.head
	for at != nil && string(at.val) != string(pivot) {
		at = at.next
	}
	if at == nil {
		return false
	}
	n := &listNode{val: v}
	if before {
		n.prev, n.next = at.prev, at
	} else {
		n.prev, n.next = at, at.next
	}
	if n.prev != nil {
		n.prev.next = n
	} else {
		l.head = n
	}
	if n.next != nil {
		n.next.prev = n
	} else {
		l.tail = n
	}
	l.length++
	l.charge(elemCost(v))
	return true
}

// Index returns the element at idx (negative counts from the tail).
func (l *List) Index(idx int) ([]byte, bool) {
	n := l.nodeAt(idx)
	if n == nil {
		return nil, false
	}
	return n.val, true
}

// SetIndex replaces the element at idx; reports whether idx was valid.
func (l *List) SetIndex(idx int, v []byte) bool {
	n := l.nodeAt(idx)
	if n == nil {
		return false
	}
	l.charge(int64(len(v) - len(n.val)))
	n.val = v
	return true
}

func (l *List) nodeAt(idx int) *listNode {
	if idx < 0 {
		idx += l.length
	}
	if idx < 0 || idx >= l.length {
		return nil
	}
	if idx < l.length/2 {
		n := l.head
		for i := 0; i < idx; i++ {
			n = n.next
		}
		return n
	}
	n := l.tail
	for i := l.length - 1; i > idx; i-- {
		n = n.prev
	}
	return n
}

// Range returns elements with indices in [start, stop] (LRANGE semantics).
func (l *List) Range(start, stop int) [][]byte {
	start, stop, ok := clampRange(start, stop, l.length)
	if !ok {
		return nil
	}
	out := make([][]byte, 0, stop-start+1)
	n := l.nodeAt(start)
	for i := start; i <= stop && n != nil; i++ {
		out = append(out, n.val)
		n = n.next
	}
	return out
}

// Trim keeps only elements with indices in [start, stop], returning the
// number removed.
func (l *List) Trim(start, stop int) int {
	s, e, ok := clampRange(start, stop, l.length)
	if !ok {
		removed := l.length
		l.head, l.tail, l.length = nil, nil, 0
		l.charge(-l.bytes)
		return removed
	}
	removed := 0
	for i := 0; i < s; i++ {
		l.PopFront()
		removed++
	}
	for l.length > e-s+1 {
		l.PopBack()
		removed++
	}
	return removed
}

// Remove deletes up to count occurrences of v: count>0 head→tail, count<0
// tail→head, count==0 all. Returns the number removed (LREM semantics).
func (l *List) Remove(count int, v []byte) int {
	removed := 0
	match := func(n *listNode) bool { return string(n.val) == string(v) }
	unlink := func(n *listNode) {
		if n.prev != nil {
			n.prev.next = n.next
		} else {
			l.head = n.next
		}
		if n.next != nil {
			n.next.prev = n.prev
		} else {
			l.tail = n.prev
		}
		l.length--
		l.charge(-elemCost(n.val))
		removed++
	}
	if count >= 0 {
		limit := count
		for n := l.head; n != nil; {
			next := n.next
			if match(n) {
				unlink(n)
				if limit > 0 && removed == limit {
					break
				}
			}
			n = next
		}
	} else {
		limit := -count
		for n := l.tail; n != nil; {
			prev := n.prev
			if match(n) {
				unlink(n)
				if removed == limit {
					break
				}
			}
			n = prev
		}
	}
	return removed
}

// Walk visits every element head→tail until fn returns false.
func (l *List) Walk(fn func(v []byte) bool) {
	for n := l.head; n != nil; n = n.next {
		if !fn(n.val) {
			return
		}
	}
}
