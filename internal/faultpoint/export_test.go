package faultpoint

import "sort"

// ArmedCount returns the number of one-shot faults still pending at the
// named site.
func (r *Registry) ArmedCount(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sites[name]; ok {
		return len(s.armed)
	}
	return 0
}

// Names returns every registered site name, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.sites))
	for name := range r.sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
