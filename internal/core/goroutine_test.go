package core_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
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

// TestOneGoroutinePerArray enforces single ownership below the daemon:
// one goroutine at a time uses an array and everything its round touches
// (server, store, detector, injector), so no package under internal/
// starts a goroutine or imports sync or sync/atomic, except the worker
// pool, and none reads the wall clock, except cliutil, the daemon's
// helpers. Whole independent jobs fan out on the pool: the live cluster's
// node rounds (cluster.Tick, one node's whole stack per worker) and the
// experiment sweeps' cells, so cluster and experiments import it. Inside an
// array three byte passes do, each touching bytes alone while the owner
// decides everything before and after: on the round's one feed (core's
// pending.go), the stream pass's, whose owner serves on while the pool sums
// its plain reads, and the rebuild's, whose owner plans beside the pool,
// feeding it each entry it has planned; and the ingest's, which writes a
// run's groups while the owner waits (recovery.go). Those two files are the
// only others that import it.
func TestOneGoroutinePerArray(t *testing.T) {
	bytePasses := map[string]string{"core": "pending.go", "recovery": "recovery.go"}
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
					p == "ftcms/internal/parallel" && pkg != "cluster" && pkg != "experiments" &&
						bytePasses[pkg] != filepath.Base(fset.Position(imp.Pos()).Filename):
					t.Errorf("%s: %s imports %s", fset.Position(imp.Pos()), pkg, p)
				}
			}
		}
	}
}
