package f90y_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/cm5"
	"f90y/internal/faults"
	"f90y/internal/hostvm"
	"f90y/internal/rt"
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

// TestOneSnapshotPath is the tripwire against a second snapshot path:
// a checkpoint reaches a file through exactly one method,
// Write(path, inj) — no streaming EncodeTo, nothing else that takes a
// path or an io.Writer — and the host VM resumes from the
// *rt.Checkpoint itself, through one Resume field, not through knobs
// copied out of it.
func TestOneSnapshotPath(t *testing.T) {
	ck := reflect.TypeOf(&rt.Checkpoint{})
	writer := reflect.TypeOf((*io.Writer)(nil)).Elem()
	var writes []string
	for i := 0; i < ck.NumMethod(); i++ {
		m := ck.Method(i)
		if m.Name == "EncodeTo" {
			t.Errorf("*rt.Checkpoint has EncodeTo: Encode builds the bytes, Write puts them on disk")
		}
		for j := 1; j < m.Type.NumIn(); j++ { // In(0) is the receiver
			if in := m.Type.In(j); in.Kind() == reflect.String || in.Implements(writer) {
				writes = append(writes, m.Name)
				break
			}
		}
	}
	if len(writes) != 1 || writes[0] != "Write" {
		t.Errorf("*rt.Checkpoint methods that write somewhere: %v, want exactly [Write]", writes)
	}
	want := reflect.TypeOf(func(*rt.Checkpoint, string, *faults.IOInjector) (int, error) { return 0, nil })
	if m, ok := ck.MethodByName("Write"); !ok || m.Type != want {
		t.Errorf("(*rt.Checkpoint).Write is %v, want %v", m.Type, want)
	}

	var resume []string
	ctl := reflect.TypeOf(hostvm.Ctl{})
	for i := 0; i < ctl.NumField(); i++ {
		if f := ctl.Field(i); strings.HasPrefix(f.Name, "Resume") {
			resume = append(resume, f.Name+" "+f.Type.String())
		}
	}
	if len(resume) != 1 || resume[0] != "Resume *rt.Checkpoint" {
		t.Errorf("hostvm.Ctl resume fields %v, want exactly [Resume *rt.Checkpoint]", resume)
	}
	if _, ok := reflect.TypeOf(&hostvm.Ctl{}).MethodByName("SetResume"); ok {
		t.Error("hostvm.Ctl has SetResume: the run core sets Resume to the checkpoint itself")
	}
}

// TestEngineFlagRetired is the tripwire against the executor engine
// becoming a user's choice again: a routine has one translated form, so
// no ExecJIT identifier may reappear in non-test code, nothing reads
// ExecOpts.JIT (inert; bench/layers names it), nothing outside
// internal/cm2 names cm2's test-only Engine, and the CLI surface stays at
// 42 flags: the 69 left after -exec-jit went from f90yrun, f90yd and
// swebench, less the six swebench lost with its wall-clock recorders
// (the serial-vs-parallel batch timer's mode flag, -exec-workers,
// -serve-wait, and -profile, -profile-pprof, -profile-folded, which
// f90yrun also had), less the three that made the executor's width a
// user's setting (f90yrun -exec-workers, f90yd -exec-workers, f90yd
// -tenant-exec-workers; internal/driver derives the width now, so no
// string literal in non-test code may spell the flag or the retired
// exec_workers request field), less f90yd -ckpt-every (a run under
// -state-dir spills by the work it has at risk, internal/server
// durable.go, so no literal may spell that flag either; f90yrun's
// -checkpoint-every, an explicit request for a file, stays), less the
// three that made f90yc a second way to run a program (-metrics, -trace,
// -faults; f90yrun's emit a superset), less five of swebench's seven
// server flags (-serve-url, -load, -load-workers, -state-dir,
// -restart-io-faults; -server-bin became -serve: the one harness,
// cmd/swebench/serve.go, always launches its own f90yd, sends one fixed
// load, keeps durable state in a temporary directory and runs the
// write-faulted phase after the clean one, so no literal may spell a
// retired name), less nine that only ever took one value or repeated
// another (swebench -layout-n, -layout-iters, -repro-dir, -parallel and
// -experiment became constants, a GOMAXPROCS derivation and positional
// arguments; f90yrun -profile-pprof and -profile-folded folded into the
// repeatable -profile DEST; f90yc -v repeated -dump stats; f90yd
// -disk-cache-bytes became a constant), none of which may be defined
// again. The count, and `make size`'s grep, see every flag only while
// cmd/ declares them on package flag's own identifier, so a FlagSet or
// a renamed flag import there fails too. A new flag must say which old
// one it retires (ROADMAP) and update this count and the budget `make
// modeled-check` holds `make size` to.
func TestEngineFlagRetired(t *testing.T) {
	defining := map[string]bool{}
	for _, typ := range []string{"Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Text"} {
		defining[typ], defining[typ+"Var"] = true, true
	}
	defining["Var"], defining["Func"], defining["BoolFunc"] = true, true, true
	retiredFlag := map[string]bool{}
	for _, name := range []string{"layout-n", "layout-iters", "repro-dir", "parallel", "experiment",
		"profile-pprof", "profile-folded", "v", "disk-cache-bytes"} {
		retiredFlag[`"`+name+`"`] = true
	}

	flags := 0
	eachNonTestFile(t, func(path string, fset *token.FileSet, file *ast.File) {
		inCmd := strings.HasPrefix(path, "cmd/")
		inCM2 := strings.HasPrefix(path, "internal/cm2/")
		for _, imp := range file.Imports {
			if inCmd && imp.Path.Value == `"flag"` && imp.Name != nil && imp.Name.Name != "flag" {
				t.Errorf("%s: flag imported as %s: the flag count sees only package flag's own name", fset.Position(imp.Pos()), imp.Name.Name)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind == token.STRING && (strings.Contains(n.Value, "exec-workers") || strings.Contains(n.Value, "exec_workers")) {
					t.Errorf("%s: literal %s: the executor width is derived, not configured", fset.Position(n.Pos()), n.Value)
				}
				if n.Kind == token.STRING && strings.Contains(n.Value, "ckpt-every") {
					t.Errorf("%s: literal %s: the spill rule is derived, not configured", fset.Position(n.Pos()), n.Value)
				}
				for _, retired := range []string{"serve-url", "load-workers", "server-bin", "restart-io-faults"} {
					if n.Kind == token.STRING && strings.Contains(n.Value, retired) {
						t.Errorf("%s: literal %s: the server harness launches and sizes its own f90yd", fset.Position(n.Pos()), n.Value)
					}
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
				if pkg, ok := n.X.(*ast.Ident); ok && inCmd && pkg.Name == "flag" && strings.Contains(n.Sel.Name, "FlagSet") {
					t.Errorf("%s: flag.%s: a FlagSet's flags escape the count; declare on package flag", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && inCmd && defining[sel.Sel.Name] {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" {
						flags++
						for _, arg := range n.Args {
							if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
								if retiredFlag[lit.Value] {
									t.Errorf("%s: flag %s is retired", fset.Position(lit.Pos()), lit.Value)
								}
								break // the first string argument is the flag's name
							}
						}
					}
				}
			}
			return true
		})
	})
	if flags != 42 {
		t.Errorf("cmd/ declares %d flags, want 42", flags)
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
