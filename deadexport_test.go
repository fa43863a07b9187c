package tenplex

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportAllowed names the exported functions of internal/ that only
// tests reach and that stay anyway: each is the check a test compares
// production output against.
var deadExportAllowed = map[string]string{
	"tenplex/internal/obs.ValidateTraceJSON":          "schema check the obs and coordinator trace tests run on every trace they record",
	"tenplex/internal/tensor.DecodeFrameHeaderFrom":   "frame-header decoder the store wire tests read a raw batch response with",
	"tenplex/internal/tensor.DecodeFrameStreamHeader": "stream-header decoder the frame and store wire tests read a raw batch response with",
	"tenplex/internal/job.InitState":                  "materialized reference state the equivalence and verify tests compare a job's stores against",
}

// TestNoDeadExports fails on an exported top-level function in
// internal/ that no non-test Go file of the repository references:
// code that only tests reach is code to delete, or to move into the
// test that needs it. bench/, cmd/ and examples/ count as callers. A
// reference is a selector pkg.Name through the file's import name, or
// a bare identifier in the function's own package outside its own
// body. Methods are not checked: an interface can call one without
// naming it.
func TestNoDeadExports(t *testing.T) {
	type fn struct{ key, pos string }
	var defined []fn
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("tenplex", filepath.ToSlash(filepath.Dir(p)))
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		for _, decl := range f.Decls {
			self := ""
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				self = fd.Name.Name
				if fd.Name.IsExported() && strings.HasPrefix(pkg, "tenplex/internal/") {
					defined = append(defined, fn{pkg + "." + self, fset.Position(fd.Pos()).String()})
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[x.Name]; ok {
							used[ip+"."+n.Sel.Name] = true
						}
					}
				case *ast.Ident:
					if n.Name != self {
						used[pkg+"."+n.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	exists := map[string]bool{}
	for _, d := range defined {
		exists[d.key] = true
		if !used[d.key] && deadExportAllowed[d.key] == "" {
			dead = append(dead, d.pos+": "+d.key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is reached by no non-test file: delete it, or move it into the test that needs it", d)
	}
	for key := range deadExportAllowed {
		if used[key] || !exists[key] {
			t.Errorf("%s is allowlisted but is not a test-only export: drop it from deadExportAllowed", key)
		}
	}
}
