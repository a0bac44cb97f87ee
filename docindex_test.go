package memorydb_bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// DESIGN.md's per-experiment index tells a reader which command
// regenerates each result. A -run or -bench pattern that matches nothing
// makes `go test` pass having run nothing, so every pattern there must
// match at least one function in each package it names.

// indexCommand is one `go test` invocation the index names.
type indexCommand struct {
	row        string   // the row's first cell
	pkgs       []string // package directories, slash-separated, relative to the root
	run, bench string   // the patterns; "" when absent
}

// indexCommands parses the last column of DESIGN.md's per-experiment
// index. A command naming no package runs in the one the command before
// it named, as the table's bare `-bench=Figure4b` rows read.
func indexCommands(design string) []indexCommand {
	var cmds []indexCommand
	var pkgs []string
	in := false
	for _, line := range strings.Split(design, "\n") {
		if strings.HasPrefix(line, "## ") {
			in = line == "## Per-experiment index"
			continue
		}
		if !in || !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") {
			continue
		}
		// An escaped pipe belongs to the cell (a pattern's alternation).
		cells := strings.Split(strings.ReplaceAll(line, `\|`, "\x00"), "|")
		if len(cells) < 3 {
			continue
		}
		row := strings.TrimSpace(cells[1])
		for _, m := range codeSpan.FindAllStringSubmatch(strings.ReplaceAll(cells[len(cells)-2], "\x00", "|"), -1) {
			fields := strings.Fields(m[1])
			if len(fields) == 0 || (fields[0] != "go" && !strings.HasPrefix(fields[0], "-")) {
				continue // not a go test invocation (make targets)
			}
			c := indexCommand{row: row}
			for i := 0; i < len(fields); i++ {
				f := strings.Trim(fields[i], `'"`)
				flag, value, hasValue := strings.Cut(f, "=")
				switch {
				case flag == "-run" || flag == "-bench":
					if !hasValue && i+1 < len(fields) {
						i++
						value = strings.Trim(fields[i], `'"`)
					}
					if flag == "-run" {
						c.run = value
					} else {
						c.bench = value
					}
				case f == "." || strings.HasPrefix(f, "./"):
					c.pkgs = append(c.pkgs, strings.TrimPrefix(strings.TrimPrefix(f, "./"), "."))
				}
			}
			if c.pkgs == nil {
				c.pkgs = pkgs
			}
			pkgs = c.pkgs
			cmds = append(cmds, c)
		}
	}
	return cmds
}

// testFuncs returns the names of the package-level functions declared in
// the _test.go files of dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// unmatchedPatterns returns one message per alternative of a pattern that
// matches no function of a package its command names: -run against Test,
// Fuzz and Example functions, -bench against Benchmark ones, each on its
// top-level (before any "/") part, as go test matches them.
func unmatchedPatterns(t *testing.T, root string, cmds []indexCommand) []string {
	t.Helper()
	var out []string
	for _, c := range cmds {
		for _, pkg := range c.pkgs {
			funcs := testFuncs(t, filepath.Join(root, filepath.FromSlash(pkg)))
			for _, p := range []struct {
				flag, pattern string
				prefixes      []string
			}{
				{"-run", c.run, []string{"Test", "Fuzz", "Example"}},
				{"-bench", c.bench, []string{"Benchmark"}},
			} {
				if p.pattern == "" {
					continue
				}
				top, _, _ := strings.Cut(p.pattern, "/")
				alts := strings.Split(top, "|")
				for _, a := range alts {
					if _, err := regexp.Compile(a); err != nil {
						alts = []string{top} // the alternation sits inside a group
						break
					}
				}
				for _, a := range alts {
					re, err := regexp.Compile(a)
					if err != nil {
						out = append(out, c.row+": "+p.flag+" "+p.pattern+": "+err.Error())
						continue
					}
					matched := false
					for _, name := range funcs {
						for _, prefix := range p.prefixes {
							matched = matched || (strings.HasPrefix(name, prefix) && re.MatchString(name))
						}
					}
					if !matched {
						out = append(out, c.row+": "+p.flag+" "+a+" matches no function in ./"+pkg)
					}
				}
			}
		}
	}
	return out
}

func TestDesignIndexPatternsMatch(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	cmds := indexCommands(string(design))
	if len(cmds) == 0 {
		t.Fatal("found no go test command in DESIGN.md's per-experiment index")
	}
	for _, msg := range unmatchedPatterns(t, ".", cmds) {
		t.Error(msg)
	}
}

// TestDesignIndexNegativeControl checks that the index check convicts a
// -run alternative and an inherited -bench pattern that match nothing,
// and passes patterns that match, make targets and bare package runs.
func TestDesignIndexNegativeControl(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "internal", "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package p\n\nimport \"testing\"\n\nfunc TestAlpha(t *testing.T) {}\n\nfunc BenchmarkBeta(b *testing.B) {}\n\nfunc helperGamma() {}\n"
	if err := os.WriteFile(filepath.Join(root, "internal", "p", "p_test.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	design := "## Per-experiment index\n\n| Experiment | Regenerate with |\n|---|---|\n" +
		"| **one** | `go test ./internal/p -run 'Alpha\\|Gamma'` |\n" +
		"| **two** | `go test -bench=Beta ./internal/p` |\n" +
		"| **three** | `-bench=Delta` |\n" +
		"| **four** | `go test ./internal/p` and `make p` |\n\n## Next\n\n| **five** | `go test ./internal/p -run Nothing` |\n"
	cmds := indexCommands(design)
	if len(cmds) != 4 {
		t.Fatalf("parsed %d commands, want 4: %+v", len(cmds), cmds)
	}
	if cmds[0].run != "Alpha|Gamma" || cmds[2].bench != "Delta" || len(cmds[2].pkgs) != 1 || cmds[2].pkgs[0] != "internal/p" {
		t.Fatalf("parsed %+v", cmds)
	}
	msgs := unmatchedPatterns(t, root, cmds)
	want := []string{
		"**one**: -run Gamma matches no function in ./internal/p",
		"**three**: -bench Delta matches no function in ./internal/p",
	}
	if strings.Join(msgs, "\n") != strings.Join(want, "\n") {
		t.Fatalf("convicted %q, want %q", msgs, want)
	}
}
