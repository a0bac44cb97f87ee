package faultpoint

import (
	"strings"
	"testing"
)

// FuzzParse feeds hostile specs to the grammar behind the
// MEMORYDB_FAULTPOINTS environment knob: it must never panic, must name
// the package in every rejection, and a registry it returns must answer
// hits at every site it armed without panicking.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"core.flush.pre=crash@3; core.append.pre=error:1.0 ,core.renew=delay:2ms:1.0",
		"core.renew", "x=explode", "", " ; , ", "a=crash@-1", "a=crash@x", "a=error:nan",
		"a=delay:1h:2", "a=delay::", "=crash", "a=error:1:2:3", "a=corrupt@0",
	} {
		f.Add(seed, int64(1))
	}
	for _, site := range AllSites() {
		f.Add(site+"=error:1;"+site+"=delay:1ms:0.5;"+site+"=crash@2", int64(2))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		r, err := Parse(spec, seed)
		if err != nil {
			if r != nil || !strings.HasPrefix(err.Error(), "faultpoint:") {
				t.Fatalf("Parse(%q) = %v, %v", spec, r, err)
			}
			return
		}
		for _, name := range r.Names() {
			for i := 0; i < 3; i++ {
				r.Hit(name)
			}
			if r.Hits(name) != 3 {
				t.Fatalf("site %q: %d hits recorded, want 3", name, r.Hits(name))
			}
		}
	})
}
