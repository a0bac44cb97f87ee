package store

import "sort"

// Hash is a hash: fields to values. A field costs its bytes, its value's
// and hashEntry, the map slot and headers that hold them.
type Hash struct {
	aggregate
	m map[string][]byte
}

const hashEntry = 64

// Len returns the number of fields.
func (h *Hash) Len() int { return len(h.m) }

// Get returns field f's value.
func (h *Hash) Get(f string) ([]byte, bool) {
	v, ok := h.m[f]
	return v, ok
}

// Put sets field f to v and reports whether f is new. The hash keeps v: a
// caller passes bytes of its own.
func (h *Hash) Put(f string, v []byte) bool {
	old, ok := h.m[f]
	if ok {
		h.charge(int64(len(v) - len(old)))
	} else {
		h.charge(int64(len(f)+len(v)) + hashEntry)
	}
	h.m[f] = v
	return !ok
}

// Delete removes field f and reports whether it was there.
func (h *Hash) Delete(f string) bool {
	v, ok := h.m[f]
	if ok {
		delete(h.m, f)
		h.charge(-int64(len(f)+len(v)) - hashEntry)
	}
	return ok
}

// Walk calls fn with every field and its value, in no order.
func (h *Hash) Walk(fn func(f string, v []byte)) {
	for f, v := range h.m {
		fn(f, v)
	}
}

// Fields returns the fields in order.
func (h *Hash) Fields() []string { return sorted(h.m) }

// Set is a set of members. A member costs its bytes and setEntry.
type Set struct {
	aggregate
	m map[string]struct{}
}

const setEntry = 48

// Len returns the cardinality.
func (s *Set) Len() int { return len(s.m) }

// Has reports whether m is a member.
func (s *Set) Has(m string) bool {
	_, ok := s.m[m]
	return ok
}

// Add adds m and reports whether it is new.
func (s *Set) Add(m string) bool {
	if s.Has(m) {
		return false
	}
	s.m[m] = struct{}{}
	s.charge(int64(len(m)) + setEntry)
	return true
}

// Remove removes m and reports whether it was a member.
func (s *Set) Remove(m string) bool {
	if !s.Has(m) {
		return false
	}
	delete(s.m, m)
	s.charge(-int64(len(m)) - setEntry)
	return true
}

// Walk calls fn with every member, in no order.
func (s *Set) Walk(fn func(m string)) {
	for m := range s.m {
		fn(m)
	}
}

// Members returns the members in order.
func (s *Set) Members() []string { return sorted(s.m) }

// sorted returns m's keys in order.
func sorted[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
