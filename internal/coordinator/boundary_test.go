package coordinator

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// decisionFiles are the decision plane: the loop and its step, the
// handlers, the scheduling engine, the accounting.
var decisionFiles = map[string]bool{"loop.go": true, "handlers.go": true, "engine.go": true, "account.go": true}

// TestDecisionFilesImportNoDataPlane holds the boundary where the code
// is: the decision plane reaches stores, transforms and checkpoints
// through the executor and starts no goroutine of its own, and nothing
// outside the executor and the runtime itself names a jobRuntime.
func TestDecisionFilesImportNoDataPlane(t *testing.T) {
	all, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset, seen := token.NewFileSet(), 0
	for _, name := range all {
		if strings.HasSuffix(name, "_test.go") || name == "executor.go" || name == "runtime.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "jobRuntime" {
				t.Errorf("%s names jobRuntime at %s", name, fset.Position(id.Pos()))
			}
			if g, ok := n.(*ast.GoStmt); ok && decisionFiles[name] {
				t.Errorf("%s starts a goroutine at %s", name, fset.Position(g.Pos()))
			}
			return true
		})
		if !decisionFiles[name] {
			continue
		}
		seen++
		for _, imp := range f.Imports {
			for _, pkg := range []string{"store", "transform", "checkpoint"} {
				if imp.Path.Value == `"tenplex/internal/`+pkg+`"` {
					t.Errorf("%s imports internal/%s", name, pkg)
				}
			}
		}
	}
	if seen != len(decisionFiles) {
		t.Fatalf("found %d of the %d decision files", seen, len(decisionFiles))
	}
}
