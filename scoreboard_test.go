package memorydb_bench

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The scoreboard: design-size numbers that only go down. A change may
// lower a ceiling to the value it reaches; raising one needs a
// justification in CHANGES.md.
const (
	// Physical lines (what `wc -l` counts) of non-test .go files outside
	// benchmark/ and .bench_build/.
	ceilingNonTestLines = 21242
	// Fields of core.Config and cluster.Config (a line declaring
	// `A, B time.Duration` is two).
	ceilingCoreConfigFields    = 25
	ceilingClusterConfigFields = 19
)

// bannedImport is the capacity model, driven only by the root
// benchmarks: no program or example links it.
const bannedImport = "memorydb/internal/bench"

// scoreboard is what TestScoreboard measures over a source tree.
type scoreboard struct {
	nonTestLines int
	// benchImporters lists the non-test files importing bannedImport.
	benchImporters []string
}

// measureTree walks the Go files under root, skipping what the go tool
// skips (testdata, directories starting with "." or "_") and the
// separate benchmark/ module.
func measureTree(t *testing.T, root string) scoreboard {
	t.Helper()
	var sb scoreboard
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "benchmark" || name == "testdata" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sb.nonTestLines += bytes.Count(src, []byte("\n"))
		f, err := parser.ParseFile(fset, path, src, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == bannedImport {
				rel, _ := filepath.Rel(root, path)
				sb.benchImporters = append(sb.benchImporters, rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb
}

// structFields counts the fields of the named struct type declared in
// the non-test files of dir.
func structFields(t *testing.T, dir, typeName string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := -1
		ast.Inspect(f, func(node ast.Node) bool {
			ts, ok := node.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typeName {
				return n < 0
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				n = 0
				for _, field := range st.Fields.List {
					n += max(len(field.Names), 1)
				}
			}
			return false
		})
		if n >= 0 {
			return n
		}
	}
	t.Fatalf("no struct %s in %s", typeName, dir)
	return 0
}

// overCeilings returns one message per scoreboard number above its
// ceiling.
func overCeilings(sb scoreboard, coreFields, clusterFields int) []string {
	var out []string
	check := func(what string, got, ceiling int) {
		if got > ceiling {
			out = append(out, what+": "+strconv.Itoa(got)+" > ceiling "+strconv.Itoa(ceiling)+
				" (a change may lower a ceiling; raising one needs a justification in CHANGES.md)")
		}
	}
	check("non-test Go lines outside benchmark/", sb.nonTestLines, ceilingNonTestLines)
	check("core.Config fields", coreFields, ceilingCoreConfigFields)
	check("cluster.Config fields", clusterFields, ceilingClusterConfigFields)
	for _, f := range sb.benchImporters {
		out = append(out, f+" imports "+bannedImport+" (only root *_test.go files may)")
	}
	return out
}

func TestScoreboard(t *testing.T) {
	sb := measureTree(t, ".")
	coreFields := structFields(t, filepath.Join("internal", "core"), "Config")
	clusterFields := structFields(t, filepath.Join("internal", "cluster"), "Config")
	t.Logf("non-test lines %d, core.Config %d fields, cluster.Config %d fields",
		sb.nonTestLines, coreFields, clusterFields)
	for _, msg := range overCeilings(sb, coreFields, clusterFields) {
		t.Error(msg)
	}
}

// TestScoreboardNegativeControl checks that the scoreboard convicts a
// tree with one line too many and a program that imports the capacity
// model, and that it skips test files and benchmark/.
func TestScoreboardNegativeControl(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("cmd/x/main.go", "package main\n\nimport _ \""+bannedImport+"\"\n\nfunc main() {}\n")
	write("cmd/x/main_test.go", "package main\n\nimport _ \""+bannedImport+"\"\n")
	write("benchmark/b.go", "package b\n\nimport _ \""+bannedImport+"\"\n")
	sb := measureTree(t, root)
	if sb.nonTestLines != 5 {
		t.Fatalf("counted %d lines, want 5 (main.go only)", sb.nonTestLines)
	}
	if len(sb.benchImporters) != 1 || sb.benchImporters[0] != filepath.Join("cmd", "x", "main.go") {
		t.Fatalf("importers = %v, want only cmd/x/main.go", sb.benchImporters)
	}

	clean := scoreboard{nonTestLines: ceilingNonTestLines}
	if msgs := overCeilings(clean, ceilingCoreConfigFields, ceilingClusterConfigFields); len(msgs) != 0 {
		t.Fatalf("tree at its ceilings convicted: %v", msgs)
	}
	clean.nonTestLines++
	if msgs := overCeilings(clean, ceilingCoreConfigFields, ceilingClusterConfigFields); len(msgs) != 1 {
		t.Fatalf("one extra line: %v, want one violation", msgs)
	}
	if msgs := overCeilings(scoreboard{}, ceilingCoreConfigFields+1, ceilingClusterConfigFields); len(msgs) != 1 {
		t.Fatalf("one extra core.Config field: %v, want one violation", msgs)
	}
}
