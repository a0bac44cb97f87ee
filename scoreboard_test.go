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
	ceilingNonTestLines = 19642
	// Fields of core.Config and cluster.Config (a line declaring
	// `A, B time.Duration` is two).
	ceilingCoreConfigFields    = 19
	ceilingClusterConfigFields = 17
	// sync.Mutex / sync.RWMutex fields of core.Node: the workloop owns the
	// node's state, and what others read of it is one published value.
	ceilingNodeLocks = 0
	// Exported funcs, methods, types and struct fields under internal/
	// that no non-test code names (see unnamedExports), allowUnnamed
	// aside.
	ceilingUnnamedExports = 30
	// time.Sleep / time.After calls in non-test internal/ code outside
	// internal/clock and internal/bench: everything else waits on a
	// clock.Clock, so a simulated clock can drive it.
	ceilingWallClockWaits = 0
	// go statements in non-test internal/ code: each goroutine the program
	// starts has an owner site, and a new one is a design change.
	ceilingGoStatements = 8
	// Sleeps of a fixed interval inside a for body in non-test code under
	// internal/, cmd/ and examples/, outside internal/clock and
	// internal/bench (see sleepPoll): a loop that sleeps and looks again is
	// a poll, where a wait on a signal belongs.
	ceilingSleepPolls = 0
	// time.Sleep calls in the _test.go files of sleepyTestDirs: a test
	// that sleeps hopes another goroutine got somewhere by then, where the
	// step harness (internal/core) or a signal the node gives would let it
	// know.
	ceilingTestSleeps = 42
	// Exported identifiers of internal/store whose signature mentions a Go
	// map (see mapSignature): an aggregate's members are reached through
	// its type, which owns what they cost.
	ceilingStoreMapSignatures = 0
	// Calls in non-test internal/engine code to a byte-charging store API
	// (see chargesParam): a command body that states a footprint delta
	// can state a wrong one, or forget it.
	ceilingEngineCharges = 0
	// Settings an operator can turn (see settingNames): flag definitions
	// in non-test cmd/ and examples/ code, plus each MEMORYDB_* name read
	// there that backs no flag (MEMORYDB_FAULTPOINTS, MEMORYDB_CRASH_SEED).
	ceilingSettings = 14
	// Node signal names written more than once in non-test internal/core
	// code (see signalNames): a signal's name is written in its one row,
	// which feeds both INFO and /metrics.
	ceilingSignalNamesTwice = 0
)

// sleepyTestDirs are the packages whose tests' sleeps the scoreboard
// counts: the node and the layers that drive it.
var sleepyTestDirs = map[string]bool{"internal/core": true, "internal/cluster": true, "internal/server": true}

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
	// testSleeps lists "file:line" of each time.Sleep call in the _test.go
	// files of sleepyTestDirs.
	testSleeps []string
	// storeMapSignatures lists the exported identifiers of non-test
	// internal/store code whose signature mentions a map.
	storeMapSignatures []string
	// engineCharges lists "file:line" of each call in non-test
	// internal/engine code to a byte-charging store API.
	engineCharges []string
	// settings counts the flag definitions in non-test cmd/ and examples/
	// code, plus each MEMORYDB_* name read there that backs no flag.
	settings int
	// signalNamesTwice lists the signal names non-test internal/core code
	// writes in more than one string literal.
	signalNamesTwice []string
}

// flagDefiners are the flag package's functions that define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// envName matches a string literal naming one of the program's
// environment settings.
var envName = regexp.MustCompile(`^"MEMORYDB_[A-Z0-9_]+"$`)

// settingNames returns the MEMORYDB_* names the string literals under n
// spell.
func settingNames(n ast.Node) []string {
	var names []string
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && envName.MatchString(lit.Value) {
			names = append(names, lit.Value)
		}
		return true
	})
	return names
}

// bareName matches a string literal that is one snake_case name; infoField
// matches each "name:%" field an INFO format string writes.
var (
	bareName  = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	infoField = regexp.MustCompile(`(?m)^([a-z][a-z0-9_]*):%`)
)

// signalNames returns the node signal names the string literal lit writes,
// as /metrics names them less a counter's _total: the literal itself when
// it is one snake_case name, else each INFO field it formats.
func signalNames(lit *ast.BasicLit) []string {
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return nil
	}
	var names []string
	if bareName.MatchString(s) {
		names = []string{s}
	}
	for _, m := range infoField.FindAllStringSubmatch(s, -1) {
		names = append(names, m[1])
	}
	for i, name := range names {
		names[i] = strings.TrimSuffix(name, "_total")
	}
	return names
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
	charging := make(map[string]bool) // byte-charging store APIs, by name
	type call struct{ where, name string }
	var engineCalls []call
	envRead, envBacked := make(map[string]bool), make(map[string]bool)
	signalWrites := make(map[string]int) // in non-test internal/core code
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
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if strings.HasSuffix(name, "_test.go") {
			rel, _ := filepath.Rel(root, path)
			if !sleepyTestDirs[filepath.ToSlash(filepath.Dir(rel))] {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "time" {
							sb.testSleeps = append(sb.testSleeps, rel+":"+strconv.Itoa(fset.Position(call.Pos()).Line))
						}
					}
				}
				return true
			})
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
		program := strings.HasPrefix(dir+"/", "cmd/") || strings.HasPrefix(dir+"/", "examples/")
		pollsCount := waitsOnWallClock || program
		if program {
			for _, name := range settingNames(f) {
				envRead[name] = true
			}
		}
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
		if dir == "internal/store" {
			sb.storeMapSignatures = append(sb.storeMapSignatures, mapSignatures(f)...)
			for _, fn := range chargingFuncs(f) {
				charging[fn] = true
			}
		}
		imports := make(map[*ast.BasicLit]bool)
		for _, imp := range f.Imports {
			imports[imp.Path] = true
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
			case *ast.BasicLit:
				if dir == "internal/core" && n.Kind == token.STRING && !imports[n] {
					for _, name := range signalNames(n) {
						signalWrites[name]++
					}
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && dir == "internal/engine" {
					engineCalls = append(engineCalls, call{rel + ":" + strconv.Itoa(fset.Position(n.Pos()).Line), sel.Sel.Name})
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && program && flagDefiners[sel.Sel.Name] {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "flag" {
						sb.settings++
						for _, name := range settingNames(n) {
							envBacked[name] = true
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range envRead {
		if !envBacked[name] {
			sb.settings++
		}
	}
	for _, c := range engineCalls {
		if charging[c.name] {
			sb.engineCharges = append(sb.engineCharges, c.where)
		}
	}
	for _, d := range decls {
		if uses[d.name] == 0 && !allowUnnamed[d.where] {
			sb.unnamed = append(sb.unnamed, d.where)
		}
	}
	sort.Strings(sb.unnamed)
	for name, n := range signalWrites {
		if n > 1 {
			sb.signalNamesTwice = append(sb.signalNamesTwice, name)
		}
	}
	sort.Strings(sb.signalNamesTwice)
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

// mapSignatures returns the exported identifiers declared in f whose
// signature mentions a map: a func or method whose parameters or results
// do, a struct field of such a type, a type defined as one.
func mapSignatures(f *ast.File) []string {
	var out []string
	mentions := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(n ast.Node) bool {
			_, isMap := n.(*ast.MapType)
			found = found || isMap
			return !found
		})
		return found
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && mentions(d.Type) {
				out = append(out, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					if ts.Name.IsExported() && mentions(ts.Type) {
						out = append(out, ts.Name.Name)
					}
					continue
				}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.IsExported() && mentions(field.Type) {
							out = append(out, ts.Name.Name+"."+id.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// chargingFuncs returns the exported funcs and methods declared in f that
// charge bytes a caller states: their body adds an integer parameter, as
// it is, to something (chargesParam).
func chargingFuncs(f *ast.File) []string {
	var out []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() && fn.Body != nil && chargesParam(fn) {
			out = append(out, fn.Name.Name)
		}
	}
	return out
}

// chargesParam reports whether fn has an integer parameter p and a
// statement x += p or x -= p, p perhaps negated, parenthesized or
// converted: what DB.AdjustUsed(obj, delta) did, the API that let command
// bodies charge their own deltas.
func chargesParam(fn *ast.FuncDecl) bool {
	ints := make(map[string]bool)
	for _, field := range fn.Type.Params.List {
		if id, ok := field.Type.(*ast.Ident); ok && strings.Contains(" int int8 int16 int32 int64 uint uint8 uint16 uint32 uint64 uintptr ", " "+id.Name+" ") {
			for _, name := range field.Names {
				ints[name.Name] = true
			}
		}
	}
	var param func(e ast.Expr) bool
	param = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return ints[e.Name]
		case *ast.ParenExpr:
			return param(e.X)
		case *ast.UnaryExpr:
			return e.Op == token.SUB && param(e.X)
		case *ast.CallExpr:
			return len(e.Args) == 1 && param(e.Args[0])
		}
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && (as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN) && param(as.Rhs[0]) {
			found = true
		}
		return !found
	})
	return found
}

// structFields counts the fields of the named struct type declared in
// the non-test files of dir.
func structFields(t *testing.T, dir, typeName string) int {
	t.Helper()
	n := 0
	for _, field := range structType(t, dir, typeName).Fields.List {
		n += max(len(field.Names), 1)
	}
	return n
}

// lockFields counts the sync.Mutex and sync.RWMutex fields, embedded or
// pointed to, of the named struct type declared in the non-test files of
// dir.
func lockFields(t *testing.T, dir, typeName string) int {
	t.Helper()
	n := 0
	for _, field := range structType(t, dir, typeName).Fields.List {
		typ := field.Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if sel, ok := typ.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex") {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sync" {
				n += max(len(field.Names), 1)
			}
		}
	}
	return n
}

// structType returns the named struct type declared in the non-test files
// of dir.
func structType(t *testing.T, dir, typeName string) *ast.StructType {
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
		var found *ast.StructType
		ast.Inspect(f, func(node ast.Node) bool {
			ts, ok := node.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typeName {
				return found == nil
			}
			found, _ = ts.Type.(*ast.StructType)
			return false
		})
		if found != nil {
			return found
		}
	}
	t.Fatalf("no struct %s in %s", typeName, dir)
	return nil
}

// overCeilings returns one message per scoreboard number above its
// ceiling.
func overCeilings(sb scoreboard, coreFields, clusterFields, nodeLocks int) []string {
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
	check("sync.Mutex / sync.RWMutex fields of core.Node", nodeLocks, ceilingNodeLocks)
	check("exported identifiers no non-test code names "+strings.Join(sb.unnamed, " "), len(sb.unnamed), ceilingUnnamedExports)
	check("wall-clock waits outside internal/clock "+strings.Join(sb.wallClockWaits, " "), len(sb.wallClockWaits), ceilingWallClockWaits)
	check("go statements in internal/ "+strings.Join(sb.goStatements, " "), len(sb.goStatements), ceilingGoStatements)
	check("sleeps in a loop (polls) "+strings.Join(sb.sleepPolls, " "), len(sb.sleepPolls), ceilingSleepPolls)
	check("time.Sleep calls in the tests of internal/core, internal/cluster and internal/server", len(sb.testSleeps), ceilingTestSleeps)
	check("exported store identifiers whose signature mentions a map "+strings.Join(sb.storeMapSignatures, " "), len(sb.storeMapSignatures), ceilingStoreMapSignatures)
	check("engine calls into a byte-charging store API "+strings.Join(sb.engineCharges, " "), len(sb.engineCharges), ceilingEngineCharges)
	check("settings (flags in cmd/ and examples/, plus MEMORYDB_* names no flag backs)", sb.settings, ceilingSettings)
	check("node signal names written more than once in internal/core "+strings.Join(sb.signalNamesTwice, " "), len(sb.signalNamesTwice), ceilingSignalNamesTwice)
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
	nodeLocks := lockFields(t, filepath.Join("internal", "core"), "Node")
	t.Logf("non-test lines %d, core.Config %d fields, cluster.Config %d fields, %d locks in core.Node, %d unnamed exports, %d wall-clock waits, %d go statements, sleep polls %v, %d sleeps in tests, store map signatures %v, engine charges %v, %d settings, signal names written twice %v",
		sb.nonTestLines, coreFields, clusterFields, nodeLocks, len(sb.unnamed), len(sb.wallClockWaits), len(sb.goStatements), sb.sleepPolls, len(sb.testSleeps), sb.storeMapSignatures, sb.engineCharges, sb.settings, sb.signalNamesTwice)
	for _, msg := range overCeilings(sb, coreFields, clusterFields, nodeLocks) {
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
// statement starts, a loop that polls on a fixed sleep, a sleep in a
// test of internal/server, a lock in core.Node, a map in an exported store
// signature and an engine call that charges bytes it states, and that it
// skips test files (their sleeps
// outside sleepyTestDirs too), benchmark/'s lines, internal/clock's
// sleeps, goroutines started outside internal/ and computed sleeps in a
// loop.
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
	write("internal/server/s_test.go", "package server\n\nimport \"time\"\n\nfunc init() { time.Sleep(1) }\n")
	// Settings: two flags (one backed by MEMORYDB_A) and MEMORYDB_B read
	// twice; a test's flag and a name only internal/ spells do not count.
	write("cmd/y/main.go", "package main\n\nvar (\n\ta = flag.Int(\"a\", envInt(\"MEMORYDB_A\"), \"\")\n"+
		"\tb = flag.String(\"b\", os.Getenv(\"MEMORYDB_A\"), \"\")\n\tc = os.Getenv(\"MEMORYDB_B\")\n"+
		"\td = os.Getenv(\"MEMORYDB_B\")\n\te = fmt.Errorf(\"MEMORYDB_B: %w\", err)\n)\n")
	write("cmd/y/main_test.go", "package main\n\nvar t = flag.Bool(\"t\", os.Getenv(\"MEMORYDB_T\") != \"\", \"\")\n")
	write("internal/c/c.go", "package c\n\nvar _ = os.Getenv(\"MEMORYDB_C\")\n")
	sb := measureTree(t, root)
	if sb.settings != 3 {
		t.Fatalf("settings = %d, want 3 (flags a and b, MEMORYDB_B)", sb.settings)
	}
	if len(sb.testSleeps) != 1 || sb.testSleeps[0] != filepath.Join("internal", "server", "s_test.go")+":5" {
		t.Fatalf("sleeps in tests = %v, want only internal/server/s_test.go:5", sb.testSleeps)
	}
	if sb.nonTestLines != 5+9+5+13+9+3 {
		t.Fatalf("counted %d lines, want 44 (main.go, a.go, c.go, p.go, y/main.go, c/c.go)", sb.nonTestLines)
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

	locks := t.TempDir()
	if err := os.WriteFile(filepath.Join(locks, "n.go"), []byte("package n\n\n"+
		"type Node struct {\n\tmu sync.Mutex\n\ta, b *sync.RWMutex\n\tsync.Mutex\n\twg sync.WaitGroup\n\tx other.Mutex\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := lockFields(t, locks, "Node"); got != 4 {
		t.Fatalf("lock fields = %d, want 4 (mu, a, b and the embedded sync.Mutex)", got)
	}

	aggs := t.TempDir()
	for rel, src := range map[string]string{
		"internal/store/s.go": "package store\n\ntype DB struct{ used int64 }\n\ntype Object struct{ Members map[string]int }\n\n" +
			"type Index map[string]int\n\nfunc (db *DB) AdjustUsed(o Object, delta int64) { db.used += delta }\n\n" +
			"func (db *DB) Grow(n int) { db.used -= -int64(n) }\n\nfunc (db *DB) Put(v []byte) { db.used += int64(len(v)) }\n\n" +
			"func (o Object) Hash() map[string][]byte { return nil }\n\nfunc (o Object) hash() map[string][]byte { return nil }\n",
		"internal/store/s_test.go": "package store\n\nfunc Walk(m map[string]int) {}\n",
		"internal/engine/e.go":     "package engine\n\nfunc run(db *store.DB, o store.Object) {\n\tdb.AdjustUsed(o, 3)\n\tdb.Put(nil)\n\tdb.Grow(1)\n}\n",
		"internal/core/c.go":       "package core\n\nfunc run(db *store.DB) { db.AdjustUsed(o, 3) }\n",
	} {
		if err := os.MkdirAll(filepath.Join(aggs, filepath.Dir(rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(aggs, rel), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sb = measureTree(t, aggs)
	if want := "Object.Members Index Hash"; strings.Join(sb.storeMapSignatures, " ") != want {
		t.Fatalf("store map signatures = %v, want %s", sb.storeMapSignatures, want)
	}
	e := filepath.Join("internal", "engine", "e.go")
	if want := e + ":4 " + e + ":6"; strings.Join(sb.engineCharges, " ") != want {
		t.Fatalf("engine charges = %v, want %s (AdjustUsed and Grow, not Put)", sb.engineCharges, want)
	}

	// Signal names: "commands" is registered and formatted into INFO, and
	// "log_sealed" registered bare and formatted with _total; an import,
	// a test file and another package do not count.
	signals := t.TempDir()
	for rel, src := range map[string]string{
		"internal/core/n.go": "package core\n\nimport \"fmt\"\n\nfunc reg() {\n\tregister(\"commands\")\n\tregister(\"log_sealed\")\n\tregister(\"fmt\")\n}\n\n" +
			"func info() string {\n\treturn fmt.Sprintf(\"commands:%d\\r\\nlog_sealed_total:%d\\r\\nrole:%s\\r\\n\", 1, 2, \"x\")\n}\n",
		"internal/core/n_test.go": "package core\n\nvar _ = []string{\"role\", \"x\"}\n",
		"internal/obs/o.go":       "package obs\n\nvar _ = []string{\"commands\", \"role\"}\n",
	} {
		if err := os.MkdirAll(filepath.Join(signals, filepath.Dir(rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(signals, rel), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Join(measureTree(t, signals).signalNamesTwice, " "); got != "commands log_sealed" {
		t.Fatalf("signal names written twice = %q, want commands log_sealed", got)
	}

	clean := scoreboard{nonTestLines: ceilingNonTestLines, settings: ceilingSettings}
	for range ceilingUnnamedExports {
		clean.unnamed = append(clean.unnamed, "x")
	}
	for range ceilingGoStatements {
		clean.goStatements = append(clean.goStatements, "g")
	}
	for range ceilingSleepPolls {
		clean.sleepPolls = append(clean.sleepPolls, "p")
	}
	for range ceilingTestSleeps {
		clean.testSleeps = append(clean.testSleeps, "s")
	}
	if msgs := overCeilings(clean, ceilingCoreConfigFields, ceilingClusterConfigFields, ceilingNodeLocks); len(msgs) != 0 {
		t.Fatalf("tree at its ceilings convicted: %v", msgs)
	}
	for _, grow := range []func(*scoreboard){
		func(sb *scoreboard) { sb.nonTestLines++ },
		func(sb *scoreboard) { sb.unnamed = append(sb.unnamed, "y") },
		func(sb *scoreboard) { sb.wallClockWaits = append(sb.wallClockWaits, "z") },
		func(sb *scoreboard) { sb.goStatements = append(sb.goStatements, "g") },
		func(sb *scoreboard) { sb.sleepPolls = append(sb.sleepPolls, "p") },
		func(sb *scoreboard) { sb.testSleeps = append(sb.testSleeps, "s") },
		func(sb *scoreboard) { sb.storeMapSignatures = append(sb.storeMapSignatures, "m") },
		func(sb *scoreboard) { sb.engineCharges = append(sb.engineCharges, "c") },
		func(sb *scoreboard) { sb.settings++ },
		func(sb *scoreboard) { sb.signalNamesTwice = append(sb.signalNamesTwice, "n") },
	} {
		over := clean
		over.unnamed = append([]string(nil), clean.unnamed...)
		over.goStatements = append([]string(nil), clean.goStatements...)
		over.sleepPolls = append([]string(nil), clean.sleepPolls...)
		over.testSleeps = append([]string(nil), clean.testSleeps...)
		grow(&over)
		if msgs := overCeilings(over, ceilingCoreConfigFields, ceilingClusterConfigFields, ceilingNodeLocks); len(msgs) != 1 {
			t.Fatalf("one over a ceiling: %v, want one violation", msgs)
		}
	}
	if msgs := overCeilings(clean, ceilingCoreConfigFields+1, ceilingClusterConfigFields, ceilingNodeLocks); len(msgs) != 1 {
		t.Fatalf("one extra core.Config field: %v, want one violation", msgs)
	}
	if msgs := overCeilings(clean, ceilingCoreConfigFields, ceilingClusterConfigFields, ceilingNodeLocks+1); len(msgs) != 1 {
		t.Fatalf("one extra lock in core.Node: %v, want one violation", msgs)
	}
}
