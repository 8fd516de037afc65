package workload

import (
	"math"
	"testing"

	"f90y/internal/interp"
	"f90y/internal/parser"
)

func runOracle(t *testing.T, src string) *interp.Machine {
	t.Helper()
	prog, err := parser.Parse("w.f90", src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	m, err := interp.Run(prog)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func TestSWEParsesAndRuns(t *testing.T) {
	m := runOracle(t, SWE(16, 3))
	p := m.Array("p")
	if p == nil {
		t.Fatal("p missing")
	}
	// The height field must stay finite and near its base value.
	for i, v := range p.F {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("p[%d] = %v (unstable)", i, v)
		}
		if v < 1000 || v > 200000 {
			t.Fatalf("p[%d] = %v (outside physical range)", i, v)
		}
	}
	// The flow must be non-trivial.
	u := m.Array("u")
	energy := 0.0
	for _, v := range u.F {
		energy += float64(v * v)
	}
	if energy == 0 {
		t.Fatal("u is identically zero")
	}
}

func TestSWEConservesMassApproximately(t *testing.T) {
	m3 := runOracle(t, SWE(16, 1))
	m6 := runOracle(t, SWE(16, 6))
	mass := func(m *interp.Machine) float64 {
		s := 0.0
		for _, v := range m.Array("p").F {
			s += v
		}
		return s
	}
	a, b := mass(m3), mass(m6)
	if math.Abs(a-b)/math.Abs(a) > 0.01 {
		t.Fatalf("mass drifted: %v -> %v", a, b)
	}
}

func TestFigureSourcesParse(t *testing.T) {
	for name, src := range map[string]string{
		"fig9":    Fig9(32),
		"fig10":   Fig10(32),
		"fig11":   Fig11(16, 12),
		"fig12":   Fig12(16),
		"stencil": Stencil(16, 2),
		"spill":   SpillKernel(64, 12),
	} {
		if _, err := parser.Parse(name+".f90", src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestStencilSmooths(t *testing.T) {
	m := runOracle(t, Stencil(16, 5))
	g := m.Array("grid")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range g.F {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi-lo >= 18 {
		t.Fatalf("smoothing did not contract range: [%v, %v]", lo, hi)
	}
}
