package pe

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoMapRangeInCodegen keeps Go's randomized map order out of what a
// compile emits: no non-test file of the code generator, or of the
// partitioner that numbers and orders its routines, ranges over a map.
// It is a grep with a parser: a name counts as a map when the package
// declares it with a map type or builds it from a map literal or make.
func TestNoMapRangeInCodegen(t *testing.T) {
	for _, dir := range []string{".", "../partition"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, e := range entries {
			if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
		}
		isMap := func(e ast.Expr) bool {
			switch e := e.(type) {
			case *ast.MapType:
				return true
			case *ast.CompositeLit:
				_, ok := e.Type.(*ast.MapType)
				return ok
			case *ast.CallExpr:
				if fn, ok := e.Fun.(*ast.Ident); ok && fn.Name == "make" && len(e.Args) > 0 {
					_, ok := e.Args[0].(*ast.MapType)
					return ok
				}
			}
			return false
		}
		maps := map[string]bool{}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Field: // struct fields, parameters, results
					if isMap(n.Type) {
						for _, id := range n.Names {
							maps[id.Name] = true
						}
					}
				case *ast.ValueSpec:
					for i, id := range n.Names {
						if (n.Type != nil && isMap(n.Type)) || (i < len(n.Values) && isMap(n.Values[i])) {
							maps[id.Name] = true
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) && isMap(n.Rhs[i]) {
							maps[id.Name] = true
						}
					}
				}
				return true
			})
		}
		if dir == "." && !maps["memo"] {
			t.Fatal("the scan no longer sees the builder's memo map: it has gone blind")
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				r, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				name := ""
				switch x := r.X.(type) {
				case *ast.Ident:
					name = x.Name
				case *ast.SelectorExpr:
					name = x.Sel.Name
				}
				if maps[name] || isMap(r.X) {
					t.Errorf("%s: range over map %q: iteration order would reach the compiler's output",
						fset.Position(r.Pos()), name)
				}
				return true
			})
		}
	}
}
