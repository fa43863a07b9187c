package coordinator

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// decisionFiles are the decision plane: the loop and its step, the
// handlers, the scheduling engine, the accounting.
var decisionFiles = map[string]bool{"loop.go": true, "handlers.go": true, "engine.go": true, "account.go": true}

// nonTestImports parses the non-test Go files of dir and returns, per
// file name, the file and the set of import paths it names.
func nonTestImports(t *testing.T, dir string) (*token.FileSet, map[string]*ast.File, map[string]map[string]bool) {
	t.Helper()
	all, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset, files, imports := token.NewFileSet(), map[string]*ast.File{}, map[string]map[string]bool{}
	for _, path := range all {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		files[name], imports[name] = f, map[string]bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			imports[name][p] = true
		}
	}
	return fset, files, imports
}

// namesMode is where the package may say which driver runs: the drivers,
// the Service that picks one, and the Options that select it.
var namesMode = map[string]bool{"driver.go": true, "service.go": true, "coordinator.go": true}

// TestDecisionFilesImportNoDataPlane holds the boundary where the
// compiler holds it. The package reaches transforms and checkpoints
// through internal/job alone; only the executor and the runtime name a
// job.Runtime or its wrapper (the decision files may plan with the
// package's pure half). The decision files are one core under two
// drivers: they reach no store and no clock, start no goroutine, wait on
// no join, and test no mode — only the drivers, the Service and the
// Options name one. And internal/job knows nothing of the control plane,
// so a benchmark can drive it bare, without an event loop in the
// measurement.
func TestDecisionFilesImportNoDataPlane(t *testing.T) {
	fset, files, imports := nonTestImports(t, ".")
	seen := 0
	for name, f := range files {
		for _, pkg := range []string{"transform", "checkpoint"} {
			if imports[name]["tenplex/internal/"+pkg] {
				t.Errorf("%s imports internal/%s", name, pkg)
			}
		}
		if decisionFiles[name] {
			seen++
			for _, pkg := range []string{"tenplex/internal/store", "time"} {
				if imports[name][pkg] {
					t.Errorf("%s imports %s", name, pkg)
				}
			}
		}
		holdsRuntime := name == "executor.go" || name == "runtime.go"
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Runtime" && !holdsRuntime {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "job" {
					t.Errorf("%s names job.Runtime at %s", name, fset.Position(sel.Pos()))
				}
			}
			if id, ok := n.(*ast.Ident); ok && id.Name == "jobRuntime" && !holdsRuntime {
				t.Errorf("%s names jobRuntime at %s", name, fset.Position(id.Pos()))
			}
			if g, ok := n.(*ast.GoStmt); ok && decisionFiles[name] {
				t.Errorf("%s starts a goroutine at %s", name, fset.Position(g.Pos()))
			}
			if id, ok := n.(*ast.Ident); ok && !namesMode[name] {
				if id.Name == "ExecMode" || id.Name == "ModeSim" || id.Name == "ModeWall" {
					t.Errorf("%s names %s at %s", name, id.Name, fset.Position(id.Pos()))
				}
			}
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Mode" && !namesMode[name] {
				t.Errorf("%s reads Options.Mode at %s", name, fset.Position(sel.Pos()))
			}
			if call, ok := n.(*ast.CallExpr); ok && decisionFiles[name] {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "join" || sel.Sel.Name == "joinJob") {
					t.Errorf("%s calls %s at %s", name, sel.Sel.Name, fset.Position(call.Pos()))
				}
			}
			return true
		})
	}
	if seen != len(decisionFiles) {
		t.Fatalf("found %d of the %d decision files", seen, len(decisionFiles))
	}

	_, files, imports = nonTestImports(t, "../job")
	if len(files) == 0 {
		t.Fatal("no Go files in internal/job")
	}
	for name := range files {
		for _, pkg := range []string{"coordinator", "chaos", "api", "sched", "experiments"} {
			if imports[name]["tenplex/internal/"+pkg] {
				t.Errorf("internal/job/%s imports internal/%s", name, pkg)
			}
		}
	}
}
