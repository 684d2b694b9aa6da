package core_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parsePackage parses the non-test Go files of the package directory dir.
func parsePackage(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range ents {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return files
}

// importName returns the local name file f binds import path ip to, or ""
// when f does not import it.
func importName(f *ast.File, ip string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == ip {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path.Base(ip)
		}
	}
	return ""
}

// TestOneGoroutinePerArray enforces single ownership below the daemon:
// one goroutine at a time uses an array and everything its round touches
// (server, store, detector, injector), so no package under internal/
// starts a goroutine or imports sync or sync/atomic, except the worker
// pool, and none reads the wall clock, except cliutil, the daemon's
// helpers. core does not use the pool, and the simulator reaches it only
// from RunMany, whose runs are independent. The live cluster's node
// fan-out (cluster.Tick) is the one in-round fan-out, one node's whole
// stack per worker.
func TestOneGoroutinePerArray(t *testing.T) {
	fset := token.NewFileSet()
	ents, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		pkg := e.Name()
		for _, f := range parsePackage(t, fset, filepath.Join("..", pkg)) {
			if pkg != "parallel" {
				ast.Inspect(f, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						t.Errorf("%s: go statement; a round runs on the calling goroutine", fset.Position(g.Pos()))
					}
					return true
				})
			}
			for _, imp := range f.Imports {
				switch p, _ := strconv.Unquote(imp.Path.Value); {
				case (p == "sync" || p == "sync/atomic") && pkg != "parallel",
					p == "time" && pkg != "cliutil",
					p == "ftcms/internal/parallel" && pkg == "core":
					t.Errorf("%s: %s imports %s", fset.Position(imp.Pos()), pkg, p)
				}
			}
		}
	}
	for _, f := range parsePackage(t, fset, filepath.Join("..", "sim")) {
		pool := importName(f, "ftcms/internal/parallel")
		if pool == "" {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "RunMany" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == pool {
						t.Errorf("%s: sim uses %s.%s outside RunMany", fset.Position(sel.Pos()), pool, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
