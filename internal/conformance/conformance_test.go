package conformance

import (
	"fmt"
	"slices"
	"testing"

	"memorydb/internal/engine"
)

// TestDifferentialReplication is the §7.2.2.2 workhorse: thousands of
// biased commands over a tiny key pool (maximal type collisions), with
// the replica applying the effect stream; the keyspaces must be
// byte-identical after every mutating command and error paths must never
// leak effects.
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

// TestEngineKeepsNoArgumentBytes holds the engine to its contract that it
// copies any argument bytes it keeps: the generator drives the whole
// command table while every argv byte is overwritten the moment Exec
// returns, and every record byte the moment Apply returns (a log record
// is decoded in place, so its arguments are views of it). A twin primary
// and a twin replica get private copies nobody touches; a command body
// that kept a view shows up as a different keyspace or dirty-key list.
func TestEngineKeepsNoArgumentBytes(t *testing.T) {
	scribble := func(bufs ...[]byte) {
		for _, b := range bufs {
			for i := range b {
				b[i] = ^b[i]
			}
		}
	}
	for _, cfg := range []GenConfig{{Seed: 1}, {Seed: 2}, {Seed: 3, TemplateBias: -1}, {Seed: 4, TemplateBias: -1}} {
		g := NewGenerator(cfg)
		p, r := NewEnginePair()
		twinP, twinR := NewEnginePair()
		for i := 0; i < 2000; i++ {
			args := g.Next()
			argv, private := make([][]byte, len(args)), make([][]byte, len(args))
			for j, a := range args {
				argv[j], private[j] = []byte(a), []byte(a)
			}
			res, want := p.Exec(argv), twinP.Exec(private)
			scribble(argv...)
			if !slices.Equal(res.Keys, want.Keys) {
				t.Fatalf("seed %d, %q: dirty keys %q, twin %q", cfg.Seed, args, res.Keys, want.Keys)
			}
			if res.Mutated() {
				keys, _, err := r.ApplyTracked(res.Effects)
				scribble(res.Effects)
				wantKeys, _, wantErr := twinR.ApplyTracked(want.Effects)
				if (err == nil) != (wantErr == nil) || !slices.Equal(keys, wantKeys) {
					t.Fatalf("seed %d, %q applied: keys %q, %v; twin %q, %v", cfg.Seed, args, keys, err, wantKeys, wantErr)
				}
			}
			for _, e := range [][2]*engine.Engine{{p, twinP}, {r, twinR}} {
				if got, want := StateDigest(e[0]), StateDigest(e[1]); got != want {
					t.Fatalf("seed %d, after %q the keyspace held argument bytes:\n%s\ntwin:\n%s", cfg.Seed, args, got, want)
				}
			}
		}
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
