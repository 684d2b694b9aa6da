package scheme_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ftcms/internal/scheme"
)

// dispatchAllowed names the per-scheme formulas that stay switches: the
// simulator's §8 failure models. Each case there is a different formula,
// not a table field.
var dispatchAllowed = map[string]bool{
	"internal/sim/failure.go:accountFailure": true,
	"internal/sim/failure.go:dueLoad":        true,
}

// TestNoSchemeDispatch walks the module's non-test Go files and fails on
// any case clause or ==/!= outside this package that names one of the
// seven scheme constants — through this package or core's re-exports —
// or a scheme key as a string literal. Everything else reads a field.
func TestNoSchemeDispatch(t *testing.T) {
	consts := map[string]bool{}
	for _, n := range []string{"Declustered", "PrefetchFlat", "PrefetchParityDisk", "StreamingRAID",
		"NonClustered", "DeclusteredDynamic", "DeclusteredPQ"} {
		consts[n] = true
	}
	keys := map[string]bool{}
	for _, k := range scheme.Names(nil) {
		keys[k] = true
	}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil || // another module
				strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "internal/scheme" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		files++
		// The local names of the packages exporting the constants; core's
		// own files name them unqualified.
		pkgs := map[string]bool{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if ip == "ftcms/internal/scheme" || ip == "ftcms/internal/core" {
				name := path.Base(ip)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				pkgs[name] = true
			}
		}
		inCore := path.Dir(rel) == "internal/core"
		namesScheme := func(e ast.Expr) bool {
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				return inCore && consts[e.Name]
			case *ast.SelectorExpr:
				x, ok := e.X.(*ast.Ident)
				return ok && pkgs[x.Name] && consts[e.Sel.Name]
			case *ast.BasicLit:
				s, err := strconv.Unquote(e.Value)
				return e.Kind == token.STRING && err == nil && keys[s]
			}
			return false
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && dispatchAllowed[rel+":"+fn.Name.Name] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CaseClause:
					for _, e := range n.List {
						if namesScheme(e) {
							t.Errorf("%s: case on a scheme; read a scheme.Scheme field instead", fset.Position(e.Pos()))
						}
					}
				case *ast.BinaryExpr:
					if (n.Op == token.EQL || n.Op == token.NEQ) && (namesScheme(n.X) || namesScheme(n.Y)) {
						t.Errorf("%s: comparison with a scheme; read a scheme.Scheme field instead", fset.Position(n.Pos()))
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
	if files < 50 {
		t.Fatalf("walked only %d files from %s", files, root)
	}
}
