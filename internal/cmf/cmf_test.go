package cmf_test

import (
	"context"
	"math"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/cmf"
	"f90y/internal/interp"
	"f90y/internal/parser"
	"f90y/internal/workload"
)

// compile compiles src under the CMF model.
func compile(t *testing.T, src string) *f90y.Compilation {
	t.Helper()
	comp, err := f90y.Compile("swe.f90", src, f90y.Config{Opt: cmf.OptOptions(), PE: cmf.PEOptions()})
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// run compiles and executes src under the CMF model on the default CM/2.
func run(t *testing.T, src string) *cm2.Result {
	t.Helper()
	res, err := compile(t, src).Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCMFModelMatchesOracle(t *testing.T) {
	src := workload.SWE(16, 2)
	res := run(t, src)
	tree, _ := parser.Parse("swe.f90", src)
	oracle, err := interp.Run(tree)
	if err != nil {
		t.Fatal(err)
	}
	p := oracle.Array("p")
	got := res.Store.Arrays["p"]
	for i := range got.Data {
		if math.Abs(got.Data[i]-p.F[i]) > 1e-9*math.Max(1, math.Abs(p.F[i])) {
			t.Fatalf("p[%d] = %v, oracle %v", i, got.Data[i], p.F[i])
		}
	}
}

func TestCMFCompilesPerStatement(t *testing.T) {
	// No cross-statement blocking: four like-shape statements become four
	// node routines.
	src := `program t
real, array(32,32) :: a, b
a = 1.0
b = a*2.0
a = b + 1.0
b = a*a
end program t
`
	comp := compile(t, src)
	if comp.PartStats.NodeRoutines != 4 {
		t.Fatalf("node routines = %d, want 4 (per statement)", comp.PartStats.NodeRoutines)
	}
	if len(comp.Program.Routines) != 4 {
		t.Fatalf("routines = %d", len(comp.Program.Routines))
	}
}

func TestCMFSlowerThanF90YOnSWE(t *testing.T) {
	// The §6 ordering at a moderate problem size.
	cmfRes := run(t, workload.SWE(128, 2))
	if cmfRes.NodeCalls == 0 {
		t.Fatal("no node calls")
	}
	if cmfRes.GFLOPS() <= 0 {
		t.Fatal("no modeled rate")
	}
}
