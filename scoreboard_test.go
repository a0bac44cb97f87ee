package memorydb_bench

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
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
	ceilingNonTestLines = 20296
	// Fields of core.Config and cluster.Config (a line declaring
	// `A, B time.Duration` is two).
	ceilingCoreConfigFields    = 21
	ceilingClusterConfigFields = 17
	// Exported funcs, methods, types and struct fields under internal/
	// that no non-test code names (see unnamedExports), allowUnnamed
	// aside.
	ceilingUnnamedExports = 34
	// time.Sleep / time.After calls in non-test internal/ code outside
	// internal/clock and internal/bench: everything else waits on a
	// clock.Clock, so a simulated clock can drive it.
	ceilingWallClockWaits = 0
	// go statements in non-test internal/ code: each goroutine the program
	// starts has an owner site, and a new one is a design change.
	ceilingGoStatements = 13
	// Sleeps of a fixed interval inside a for body in non-test code under
	// internal/, cmd/ and examples/, outside internal/clock and
	// internal/bench (see sleepPoll): a loop that sleeps and looks again is
	// a poll, where a wait on a signal belongs. The three left pace on
	// purpose: the slot drain between DEL batches
	// (internal/cluster/resharding.go, §5.2), the baseline's model of
	// Redis WAIT (internal/baseline/node.go) and the failover example's
	// trickle of writes (examples/failover/main.go).
	ceilingSleepPolls = 3
)

// allowUnnamed are paper mechanisms that only tests drive today, kept in
// the program on purpose: slot migration (§5.2), rolling upgrades
// (§7.1) and the log service's restart integrity pass (§4, torn-tail
// recovery).
var allowUnnamed = map[string]bool{
	"internal/cluster.Cluster.MigrateSlot":    true,
	"internal/cluster.SlotTransferHistory":    true,
	"internal/cluster.Cluster.RollingUpgrade": true,
	"internal/txlog.Log.RecoverChain":         true,
}

// bannedImport is the capacity model, driven only by the root
// benchmarks: no program or example links it.
const bannedImport = "memorydb/internal/bench"

// scoreboard is what TestScoreboard measures over a source tree.
type scoreboard struct {
	nonTestLines int
	// benchImporters lists the non-test files importing bannedImport.
	benchImporters []string
	// unnamed lists unnamedExports minus allowUnnamed.
	unnamed []string
	// wallClockWaits lists "file:line" of each time.Sleep / time.After
	// call in non-test internal/ code outside internal/clock and
	// internal/bench.
	wallClockWaits []string
	// goStatements lists "file:line" of each go statement in non-test
	// internal/ code, and goOwners its owner at the same index: the
	// package and the function the goroutine runs ("core.workloop") or,
	// for a func literal, the function that starts it.
	goStatements []string
	goOwners     []string
	// sleepPolls lists "file:line" of each sleepPoll inside a for body in
	// non-test code under internal/, cmd/ and examples/, outside
	// internal/clock and internal/bench.
	sleepPolls []string
}

// measureTree walks the non-test Go files under root, skipping what the go
// tool skips (testdata, directories starting with "." or "_"). Lines and
// imports are counted outside the separate benchmark/ module; the
// unnamed-export scan reads benchmark/ too, since it names the program's
// identifiers like any other client.
func measureTree(t *testing.T, root string) scoreboard {
	t.Helper()
	var sb scoreboard
	type decl struct{ where, name string }
	var decls []decl
	uses := make(map[string]int)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
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
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		dir := filepath.ToSlash(filepath.Dir(rel))
		if dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/") {
			sb.nonTestLines += bytes.Count(src, []byte("\n"))
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == bannedImport {
					sb.benchImporters = append(sb.benchImporters, rel)
				}
			}
		}
		internal := strings.HasPrefix(dir, "internal/")
		waitsOnWallClock := internal && !strings.HasPrefix(dir+"/", "internal/clock/") && !strings.HasPrefix(dir+"/", "internal/bench/")
		pollsCount := waitsOnWallClock || strings.HasPrefix(dir+"/", "cmd/") || strings.HasPrefix(dir+"/", "examples/")
		polled := make(map[*ast.CallExpr]bool) // a sleep in nested loops counts once
		notePolls := func(body *ast.BlockStmt) {
			ast.Inspect(body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && !polled[call] && sleepPoll(call) {
					polled[call] = true
					sb.sleepPolls = append(sb.sleepPolls, rel+":"+strconv.Itoa(fset.Position(call.Pos()).Line))
				}
				return true
			})
		}
		declared := make(map[*ast.Ident]bool)
		enclosing := "" // the FuncDecl being walked
		note := func(owner string, id *ast.Ident) {
			declared[id] = true
			if internal && id.IsExported() {
				decls = append(decls, decl{dir + "." + owner + id.Name, id.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				enclosing = n.Name.Name
				owner := ""
				if n.Recv != nil && len(n.Recv.List) == 1 {
					typ := n.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if id, ok := typ.(*ast.Ident); ok {
						owner = id.Name + "."
					}
				}
				note(owner, n.Name)
			case *ast.TypeSpec:
				note("", n.Name)
				if st, ok := n.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						for _, id := range field.Names {
							note(n.Name.Name+".", id)
						}
					}
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && waitsOnWallClock && x.Name == "time" &&
					(n.Sel.Name == "Sleep" || n.Sel.Name == "After") {
					sb.wallClockWaits = append(sb.wallClockWaits, rel+":"+strconv.Itoa(fset.Position(n.Pos()).Line))
				}
			case *ast.ForStmt:
				if pollsCount {
					notePolls(n.Body)
				}
			case *ast.RangeStmt:
				if pollsCount {
					notePolls(n.Body)
				}
			case *ast.GoStmt:
				if internal {
					sb.goStatements = append(sb.goStatements, rel+":"+strconv.Itoa(fset.Position(n.Pos()).Line))
					runs := enclosing
					switch fun := n.Call.Fun.(type) {
					case *ast.Ident:
						runs = fun.Name
					case *ast.SelectorExpr:
						runs = fun.Sel.Name
					}
					sb.goOwners = append(sb.goOwners, filepath.Base(dir)+"."+runs)
				}
			case *ast.Ident:
				if !declared[n] {
					uses[n.Name]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		if uses[d.name] == 0 && !allowUnnamed[d.where] {
			sb.unnamed = append(sb.unnamed, d.where)
		}
	}
	sort.Strings(sb.unnamed)
	return sb
}

// sleepPoll reports whether call is x.Sleep(d) with d a fixed interval:
// literals and time's constants only. A retry's backoff (b.Sleep()), an
// injected fault's delay (Sleep(d.Delay)) and a sampled network delay are
// computed, and are not polls.
func sleepPoll(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Sleep" && len(call.Args) == 1 && fixedInterval(call.Args[0])
}

func fixedInterval(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.SelectorExpr:
		pkg, ok := e.X.(*ast.Ident)
		return ok && pkg.Name == "time"
	case *ast.BinaryExpr:
		return fixedInterval(e.X) && fixedInterval(e.Y)
	case *ast.ParenExpr:
		return fixedInterval(e.X)
	}
	return false
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
	check("exported identifiers no non-test code names "+strings.Join(sb.unnamed, " "), len(sb.unnamed), ceilingUnnamedExports)
	check("wall-clock waits outside internal/clock "+strings.Join(sb.wallClockWaits, " "), len(sb.wallClockWaits), ceilingWallClockWaits)
	check("go statements in internal/ "+strings.Join(sb.goStatements, " "), len(sb.goStatements), ceilingGoStatements)
	check("sleeps in a loop (polls) "+strings.Join(sb.sleepPolls, " "), len(sb.sleepPolls), ceilingSleepPolls)
	for _, f := range sb.benchImporters {
		out = append(out, f+" imports "+bannedImport+" (only root *_test.go files may)")
	}
	return out
}

// goroutineTable returns the owners DESIGN.md's "Who runs what" table
// lists: the code spans in the "started at" column of its rows.
func goroutineTable(design string) []string {
	var owners []string
	in := false
	for _, line := range strings.Split(design, "\n") {
		if strings.Contains(line, "**Who runs what**") {
			in = true
			continue
		}
		if !in || !strings.HasPrefix(line, "|") {
			if in && len(owners) > 0 {
				break
			}
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(cells[2], -1) {
			owners = append(owners, m[1])
		}
	}
	return owners
}

// codeSpan matches one `code span`.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// unownedGoroutines returns one message per go statement whose owner no
// row of the "Who runs what" table names, and one per owner the table
// names that starts no goroutine: the table stays true both ways.
func unownedGoroutines(sb scoreboard, design string) []string {
	listed := make(map[string]bool)
	for _, o := range goroutineTable(design) {
		listed[o] = true
	}
	started := make(map[string]bool)
	var out []string
	for i, o := range sb.goOwners {
		started[o] = true
		if !listed[o] {
			out = append(out, "go statement at "+sb.goStatements[i]+" ("+o+") names no row of DESIGN.md's \"Who runs what\" table")
		}
	}
	for o := range listed {
		if !started[o] {
			out = append(out, "DESIGN.md's \"Who runs what\" table lists "+o+", which starts no goroutine")
		}
	}
	sort.Strings(out)
	return out
}

func TestScoreboard(t *testing.T) {
	sb := measureTree(t, ".")
	coreFields := structFields(t, filepath.Join("internal", "core"), "Config")
	clusterFields := structFields(t, filepath.Join("internal", "cluster"), "Config")
	t.Logf("non-test lines %d, core.Config %d fields, cluster.Config %d fields, %d unnamed exports, %d wall-clock waits, %d go statements, sleep polls %v",
		sb.nonTestLines, coreFields, clusterFields, len(sb.unnamed), len(sb.wallClockWaits), len(sb.goStatements), sb.sleepPolls)
	for _, msg := range overCeilings(sb, coreFields, clusterFields) {
		t.Error(msg)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range unownedGoroutines(sb, string(design)) {
		t.Error(msg)
	}
}

// TestScoreboardNegativeControl checks that the scoreboard convicts a
// tree with one line too many, a program that imports the capacity
// model, an export only a test names, a wall-clock sleep and a go
// statement, a go statement no "Who runs what" row names and a row no go
// statement starts, and a loop that polls on a fixed sleep, and that it
// skips test files, benchmark/'s lines, internal/clock's sleeps,
// goroutines started outside internal/ and computed sleeps in a loop.
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
	write("cmd/x/main.go", "package main\n\nimport _ \""+bannedImport+"\"\n\nfunc main() { go main() }\n")
	write("cmd/x/main_test.go", "package main\n\nimport _ \""+bannedImport+"\"\n")
	write("benchmark/b.go", "package b\n\nimport _ \""+bannedImport+"\"\n\nvar _ = a.Used\n")
	write("internal/a/a.go", "package a\n\nimport \"time\"\n\n"+
		"type T struct{ Field int }\n\nfunc Used() { time.Sleep(0); go Used() }\n\nfunc (T) Unnamed() {}\n")
	write("internal/a/a_test.go", "package a\n\nimport \"time\"\n\nvar _ = T{}.Unnamed\n\nfunc init() { time.Sleep(0); go Used() }\n")
	write("internal/clock/c.go", "package clock\n\nimport \"time\"\n\nfunc Wait() { <-time.After(0) }\n")
	write("examples/p/p.go", "package p\n\nimport \"time\"\n\n"+
		"func Poll(ready func() bool, d time.Duration) {\n\tfor !ready() {\n\t\tfor range 2 {\n"+
		"\t\t\ttime.Sleep(2 * time.Millisecond)\n\t\t}\n\t\ttime.Sleep(d)\n\t}\n\ttime.Sleep(1)\n}\n")
	write("examples/p/p_test.go", "package p\n\nimport \"time\"\n\nfunc init() {\n\tfor {\n\t\ttime.Sleep(1)\n\t}\n}\n")
	sb := measureTree(t, root)
	if sb.nonTestLines != 5+9+5+13 {
		t.Fatalf("counted %d lines, want 32 (main.go, a.go, c.go, p.go)", sb.nonTestLines)
	}
	if len(sb.sleepPolls) != 1 || sb.sleepPolls[0] != filepath.Join("examples", "p", "p.go")+":8" {
		t.Fatalf("sleep polls = %v, want only examples/p/p.go:8", sb.sleepPolls)
	}
	if len(sb.benchImporters) != 1 || sb.benchImporters[0] != filepath.Join("cmd", "x", "main.go") {
		t.Fatalf("importers = %v, want only cmd/x/main.go", sb.benchImporters)
	}
	want := []string{"internal/a.T.Field", "internal/a.T.Unnamed", "internal/clock.Wait"}
	if strings.Join(sb.unnamed, ",") != strings.Join(want, ",") {
		t.Fatalf("unnamed = %v, want %v", sb.unnamed, want)
	}
	if len(sb.wallClockWaits) != 1 || sb.wallClockWaits[0] != filepath.Join("internal", "a", "a.go")+":7" {
		t.Fatalf("wall-clock waits = %v, want only internal/a/a.go:7", sb.wallClockWaits)
	}
	if len(sb.goStatements) != 1 || sb.goStatements[0] != filepath.Join("internal", "a", "a.go")+":7" {
		t.Fatalf("go statements = %v, want only internal/a/a.go:7", sb.goStatements)
	}
	if len(sb.goOwners) != 1 || sb.goOwners[0] != "a.Used" {
		t.Fatalf("go statement owners = %v, want only a.Used", sb.goOwners)
	}
	table := "**Who runs what**\n\n| goroutine | started at | does |\n|---|---|---|\n| worker | `a.Used` | `b.Other` is not an owner |\n\nAfter it: `a.Gone`.\n"
	if msgs := unownedGoroutines(sb, table); len(msgs) != 0 {
		t.Fatalf("a table naming every owner convicted: %v", msgs)
	}
	for _, bad := range []string{
		strings.Replace(table, "`a.Used`", "", 1),                  // a go statement with no row
		strings.Replace(table, "`a.Used`", "`a.Used` `a.Gone`", 1), // a row for no go statement
	} {
		if msgs := unownedGoroutines(sb, bad); len(msgs) != 1 {
			t.Fatalf("table %q: %v, want one violation", bad, msgs)
		}
	}

	clean := scoreboard{nonTestLines: ceilingNonTestLines}
	for range ceilingUnnamedExports {
		clean.unnamed = append(clean.unnamed, "x")
	}
	for range ceilingGoStatements {
		clean.goStatements = append(clean.goStatements, "g")
	}
	for range ceilingSleepPolls {
		clean.sleepPolls = append(clean.sleepPolls, "p")
	}
	if msgs := overCeilings(clean, ceilingCoreConfigFields, ceilingClusterConfigFields); len(msgs) != 0 {
		t.Fatalf("tree at its ceilings convicted: %v", msgs)
	}
	for _, grow := range []func(*scoreboard){
		func(sb *scoreboard) { sb.nonTestLines++ },
		func(sb *scoreboard) { sb.unnamed = append(sb.unnamed, "y") },
		func(sb *scoreboard) { sb.wallClockWaits = append(sb.wallClockWaits, "z") },
		func(sb *scoreboard) { sb.goStatements = append(sb.goStatements, "g") },
		func(sb *scoreboard) { sb.sleepPolls = append(sb.sleepPolls, "p") },
	} {
		over := clean
		over.unnamed = append([]string(nil), clean.unnamed...)
		over.goStatements = append([]string(nil), clean.goStatements...)
		over.sleepPolls = append([]string(nil), clean.sleepPolls...)
		grow(&over)
		if msgs := overCeilings(over, ceilingCoreConfigFields, ceilingClusterConfigFields); len(msgs) != 1 {
			t.Fatalf("one over a ceiling: %v, want one violation", msgs)
		}
	}
	if msgs := overCeilings(clean, ceilingCoreConfigFields+1, ceilingClusterConfigFields); len(msgs) != 1 {
		t.Fatalf("one extra core.Config field: %v, want one violation", msgs)
	}
}
