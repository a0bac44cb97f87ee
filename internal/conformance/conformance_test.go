package conformance

import (
	"fmt"
	"testing"

	"memorydb/internal/engine"
)

// TestDifferentialReplication is the §7.2.2.2 workhorse: thousands of
// biased commands over a tiny key pool (maximal type collisions), with
// the replica applying the effect stream; the final keyspaces must be
// byte-identical and error paths must never leak effects.
func TestDifferentialReplication(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := NewGenerator(GenConfig{Seed: seed})
			p, r := NewEnginePair()
			divergence, okCount, errCount := RunDifferential(g, p, r, 3000)
			if divergence != "" {
				t.Fatal(divergence)
			}
			if okCount < 500 {
				t.Fatalf("only %d/%d commands succeeded — generator not exercising the API", okCount, okCount+errCount)
			}
			if errCount == 0 {
				t.Fatal("no error paths exercised — argument biasing broken")
			}
		})
	}
}

// TestDifferentialPureFuzz runs spec-derived fuzzing only (no curated
// templates): almost everything errors, and none of it may diverge.
func TestDifferentialPureFuzz(t *testing.T) {
	g := NewGenerator(GenConfig{Seed: 99, TemplateBias: -1})
	p, r := NewEnginePair()
	if divergence, _, _ := RunDifferential(g, p, r, 3000); divergence != "" {
		t.Fatal(divergence)
	}
}

// TestTwoReplicasConverge: the same effect stream applied to two
// replicas yields identical state (replica determinism).
func TestTwoReplicasConverge(t *testing.T) {
	g := NewGenerator(GenConfig{Seed: 7})
	p, r1 := NewEnginePair()
	_, r2 := NewEnginePair()
	for i := 0; i < 2000; i++ {
		args := g.Next()
		argv := make([][]byte, len(args))
		for j, a := range args {
			argv[j] = []byte(a)
		}
		res := p.Exec(argv)
		if res.Reply.IsError() || !res.Mutated() {
			continue
		}
		record := res.Effects
		if err := r1.Apply(record); err != nil {
			t.Fatalf("r1: %v", err)
		}
		if err := r2.Apply(record); err != nil {
			t.Fatalf("r2: %v", err)
		}
	}
	if d1, d2 := StateDigest(r1), StateDigest(r2); d1 != d2 {
		t.Fatalf("replicas diverged from the same stream:\n%s\nvs\n%s", d1, d2)
	}
}

// TestDumpRebuildMatchesDigest: DumpCommands (the slot-migration
// serialization) rebuilds a byte-identical keyspace.
func TestDumpRebuildMatchesDigest(t *testing.T) {
	g := NewGenerator(GenConfig{Seed: 13})
	p, _ := NewEnginePair()
	for i := 0; i < 1500; i++ {
		args := g.Next()
		argv := make([][]byte, len(args))
		for j, a := range args {
			argv[j] = []byte(a)
		}
		p.Exec(argv)
	}
	_, rebuilt := NewEnginePair()
	for _, key := range p.DB().Keys("*", p.Now()) {
		for _, argv := range p.DumpCommands(key) {
			if res := rebuilt.Exec(argv); res.Reply.IsError() {
				t.Fatalf("dump command %q failed: %v", argv, res.Reply)
			}
		}
	}
	if a, b := StateDigest(p), StateDigest(rebuilt); a != b {
		t.Fatalf("dump rebuild diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestGeneratorCoversCommandTable: over enough rounds, the generator
// must touch a large majority of registered commands.
func TestGeneratorCoversCommandTable(t *testing.T) {
	g := NewGenerator(GenConfig{Seed: 21, TemplateBias: 0.5})
	seen := map[string]bool{}
	for i := 0; i < 20000; i++ {
		args := g.Next()
		seen[normalize(args[0])] = true
	}
	total := len(engine.CommandNames())
	if len(seen) < total*8/10 {
		t.Fatalf("generator covered %d/%d commands", len(seen), total)
	}
}

func normalize(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 32
		}
		out[i] = c
	}
	return string(out)
}
