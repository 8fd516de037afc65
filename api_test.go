package f90y_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/cm5"
)

// TestOneRunEntryPointPerLayer is the tripwire against the Run*/Exec*
// ladders growing back: each layer exports exactly one ctx-aware run
// method, and a new convenience variant (RunObs, RunCtl, ...) fails
// here — add a parameter or a Control field instead. The machine-level
// survivor is still called RunCtx only because bench/ pins that name.
func TestOneRunEntryPointPerLayer(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want string
	}{
		{reflect.TypeOf(&f90y.Compilation{}), "Run"},
		{reflect.TypeOf(&cm2.Machine{}), "RunCtx"},
		{reflect.TypeOf(&cm5.Machine{}), "RunCtx"},
		{reflect.TypeOf(&cm2.Target{}), "Run"},
	} {
		var got []string
		for i := 0; i < c.typ.NumMethod(); i++ {
			if name := c.typ.Method(i).Name; strings.HasPrefix(name, "Run") {
				got = append(got, name)
			}
		}
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("%v exports Run* methods %v, want exactly [%s]", c.typ, got, c.want)
		}
	}
}

// TestEngineFlagRetired is the tripwire against the executor engine
// becoming a user's choice again: a routine has one translated form, so
// no ExecJIT identifier may reappear in non-test code, nothing reads
// ExecOpts.JIT (inert; bench/layers names it), nothing outside
// internal/cm2 names cm2's test-only Engine, and the CLI surface stays at
// 59 flags: the 69 left after -exec-jit went from f90yrun, f90yd and
// swebench, less the six swebench lost with its wall-clock recorders
// (the serial-vs-parallel batch timer's mode flag, -exec-workers,
// -serve-wait, and -profile, -profile-pprof, -profile-folded, which
// remain on f90yrun), less the three that made the executor's width a
// user's setting (f90yrun -exec-workers, f90yd -exec-workers, f90yd
// -tenant-exec-workers; internal/driver derives the width now, so no
// string literal in non-test code may spell the flag or the retired
// exec_workers request field), less f90yd -ckpt-every (a run under
// -state-dir spills by the work it has at risk, internal/server
// durable.go, so no literal may spell that flag either; f90yrun's
// -checkpoint-every, an explicit request for a file, stays), less the
// three that made f90yc a second way to run a program (-metrics, -trace,
// -faults; f90yrun's emit a superset). A new flag must say which old one
// it retires (ROADMAP) and update this count and the budget `make
// modeled-check` holds `make size` to.
func TestEngineFlagRetired(t *testing.T) {
	defining := map[string]bool{}
	for _, typ := range []string{"Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Text"} {
		defining[typ], defining[typ+"Var"] = true, true
	}
	defining["Var"], defining["Func"], defining["BoolFunc"] = true, true, true

	flags := 0
	eachNonTestFile(t, func(path string, fset *token.FileSet, file *ast.File) {
		inCmd := strings.HasPrefix(path, "cmd/")
		inCM2 := strings.HasPrefix(path, "internal/cm2/")
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind == token.STRING && (strings.Contains(n.Value, "exec-workers") || strings.Contains(n.Value, "exec_workers")) {
					t.Errorf("%s: literal %s: the executor width is derived, not configured", fset.Position(n.Pos()), n.Value)
				}
				if n.Kind == token.STRING && strings.Contains(n.Value, "ckpt-every") {
					t.Errorf("%s: literal %s: the spill rule is derived, not configured", fset.Position(n.Pos()), n.Value)
				}
			case *ast.Ident:
				if strings.Contains(n.Name, "ExecJIT") {
					t.Errorf("%s: identifier %s: the engine flag is retired", fset.Position(n.Pos()), n.Name)
				}
			case *ast.SelectorExpr:
				if n.Sel.Name == "JIT" {
					t.Errorf("%s: reads .JIT: the field is inert", fset.Position(n.Pos()))
				}
				if pkg, ok := n.X.(*ast.Ident); ok && !inCM2 && pkg.Name == "cm2" && strings.Contains(n.Sel.Name, "Engine") {
					t.Errorf("%s: cm2.%s outside internal/cm2: the engine is test-only", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && inCmd && defining[sel.Sel.Name] {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" {
						flags++
					}
				}
			}
			return true
		})
	})
	if flags != 56 {
		t.Errorf("cmd/ declares %d flags, want 56", flags)
	}
}

// TestOneTargetTable holds "a machine is a value from the flag to the
// oracle": outside the two machine packages, no non-test code spells a
// machine's name — it resolves a name through, or ranges over,
// driver.Targets (internal/driver/targets.go, the one file allowed to).
// A third machine is then one Target and one table row, not an edit in
// every tool. Comments and help text are prose, not dispatch: only a
// string literal that IS a name counts.
func TestOneTargetTable(t *testing.T) {
	seen := 0
	eachNonTestFile(t, func(path string, fset *token.FileSet, file *ast.File) {
		home := strings.HasPrefix(path, "internal/cm2/") || strings.HasPrefix(path, "internal/cm5/") ||
			path == "internal/driver/targets.go"
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || (lit.Value != `"cm2"` && lit.Value != `"cm5"`) {
				return true
			}
			if seen++; !home {
				t.Errorf("%s: literal %s: resolve the machine through driver.Targets", fset.Position(lit.Pos()), lit.Value)
			}
			return true
		})
	})
	if seen < 2 {
		t.Fatalf("the scan saw %d machine-name literals, not even the machine packages' own: it has gone blind", seen)
	}
}

// TestOneCommCostPath holds "one place knows what a transfer costs":
// the CommCost fields are named by the formulas of internal/rt/cost.go
// (DefaultCommCost with them) and by the two machines' own literals,
// nowhere else — every other file prices a transfer by calling a
// CommCost method — and no file of the layout layers describes a
// second, "legacy" model beside the one.
func TestOneCommCostPath(t *testing.T) {
	fields := map[string]bool{"GridStartup": true, "GridLocal": true, "GridWire": true, "RouterStartup": true,
		"RouterPerElem": true, "ReduceStartup": true, "ReducePerElem": true, "HopCost": true}
	seen := 0
	eachNonTestFile(t, func(path string, fset *token.FileSet, file *ast.File) {
		home := path == "internal/rt/cost.go" || path == "internal/cm2/machine.go" || path == "internal/cm5/cm5.go"
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || !fields[id.Name] {
				return true
			}
			if seen++; !home {
				t.Errorf("%s: %s: price the transfer with a CommCost method (internal/rt/cost.go)", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
		if !strings.HasPrefix(path, "internal/rt/") && !strings.HasPrefix(path, "internal/shape/") &&
			!strings.HasPrefix(path, "internal/partition/") {
			return
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(strings.ToLower(string(src)), "legacy") {
			t.Errorf("%s says \"legacy\": the default layout is an ordinary Distribution with one price", path)
		}
	})
	if seen < len(fields) {
		t.Fatalf("the scan saw %d CommCost field names, not even cost.go's own: it has gone blind", seen)
	}
}

// eachNonTestFile parses every non-test Go file of the module and hands
// it to visit with its slash-separated path. bench/ is the benchmark's
// own module and pins the names it uses; dot-directories hold build
// output.
func eachNonTestFile(t *testing.T, visit func(path string, fset *token.FileSet, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), fset, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
