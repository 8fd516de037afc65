package starlisp

import (
	"testing"

	"f90y/internal/interp"
	"f90y/internal/parser"
	"f90y/internal/workload"
)

// TestHandCodedSWEMatchesOracle validates the hand-coded *Lisp program
// against the reference interpreter running the Fortran source: same
// equations, same values, bit for bit. The program is hand-written, not
// compiled, so it is checked here rather than through internal/oracle.
func TestHandCodedSWEMatchesOracle(t *testing.T) {
	const n, steps = 16, 4
	sim, _ := RunSWE(n, steps, DefaultModel)

	prog, err := parser.Parse("swe.f90", workload.SWE(n, steps))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := interp.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"p", "u", "v"} {
		want := oracle.Array(name)
		got := sim.PVar(name)
		for i := range got {
			if got[i] != want.F[i] {
				t.Fatalf("%s[%d] = %v, oracle %v", name, i, got[i], want.F[i])
			}
		}
	}
}

func TestCostAccountingScales(t *testing.T) {
	_, r1 := RunSWE(16, 1, DefaultModel)
	_, r2 := RunSWE(16, 2, DefaultModel)
	if r2.Cycles <= r1.Cycles || r2.Flops <= r1.Flops {
		t.Fatalf("costs did not grow: %v vs %v", r1, r2)
	}
	// Two steps roughly double the per-step work beyond init.
	stepCycles := r2.Cycles - r1.Cycles
	if stepCycles <= 0 {
		t.Fatal("non-positive per-step cost")
	}
}

func TestGFLOPSInPlausibleRange(t *testing.T) {
	// At the paper's scale the model must land in the low single-digit
	// gigaflops, below the compiled slicewise systems.
	_, r := RunSWE(256, 2, DefaultModel)
	gf := r.GFLOPS(DefaultModel.ClockHz)
	if gf < 0.5 || gf > 3.0 {
		t.Fatalf("fieldwise SWE = %.2f GF, outside plausible band", gf)
	}
}

func TestShiftSemantics(t *testing.T) {
	s := New(4, DefaultModel)
	a := s.PVar("a")
	for i := range a {
		a[i] = float64(i)
	}
	s.Shift("b", "a", 1, -1) // b(i,j) = a(i-1,j)
	b := s.PVar("b")
	// Column-major 4x4: element (2,1) is index 1; its source (1,1) is 0.
	if b[1] != 0 || b[0] != 3 {
		t.Fatalf("shift wrong: %v", b[:4])
	}
}

func TestOpsCounted(t *testing.T) {
	s := New(8, DefaultModel)
	s.Bin("c", "a", "b", func(x, y float64) float64 { return x + y })
	s.Scale("c", "c", func(x float64) float64 { return 2 * x })
	if s.Ops != 2 || s.Flops != int64(2*8*8) {
		t.Fatalf("ops=%d flops=%d", s.Ops, s.Flops)
	}
}
