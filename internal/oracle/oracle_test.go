package oracle

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/driver"
	"f90y/internal/faults"
	"f90y/internal/nir"
	"f90y/internal/rt"
	"f90y/internal/workload"
)

// soakPrograms are the standard verification subjects: the paper's
// seven experiment kernels at reduced sizes, and the shifts by a DO
// index.
func soakPrograms() []Program {
	return []Program{
		{Name: "swe", File: "swe.f90", Source: workload.SWE(16, 2)},
		{Name: "fig9", File: "fig9.f90", Source: workload.Fig9(16)},
		{Name: "fig10", File: "fig10.f90", Source: workload.Fig10(16)},
		{Name: "fig11", File: "fig11.f90", Source: workload.Fig11(16, 4)},
		{Name: "fig12", File: "fig12.f90", Source: workload.Fig12(16)},
		{Name: "stencil", File: "stencil.f90", Source: workload.Stencil(16, 2)},
		{Name: "spill", File: "spill.f90", Source: workload.SpillKernel(64, 10)},
		{Name: "doshift", File: "doshift.f90", Source: workload.DoShift(16)},
	}
}

// TestVerifyAgreesOnWorkloads: the interpreter and both machine
// backends agree on every experiment kernel.
func TestVerifyAgreesOnWorkloads(t *testing.T) {
	for _, p := range soakPrograms() {
		rep, err := Verify(p.File, p.Source, Options{})
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if rep.Divergence != nil {
			t.Errorf("%s: unexpected divergence %s", p.Name, rep.Divergence)
		}
		if rep.Vars == 0 || rep.Elems == 0 {
			t.Errorf("%s: nothing compared (vars=%d elems=%d)", p.Name, rep.Vars, rep.Elems)
		}
	}
}

// TestVerifyShardedExecutor: differential verification holds with the
// sharded executor active on both machine backends, under the reference
// evaluator and the translated form. The grid is sized so every field
// is past two of the executor's 4096-element chunks (91x91 = 8281
// elements), so the dispatches fan out and cross-chunk sharding is
// checked against the serial interpreter. The CYCLIC gather (12,293 elements) and transpose
// (128² = 16,384) are past two chunks, so the comm layer fills their
// payloads on the same workers.
func TestVerifyShardedExecutor(t *testing.T) {
	defer func() { cm2.TestOnlyEngine = cm2.EngineTranslated }()
	progs := []struct{ name, src string }{
		{"swe.f90", workload.SWE(91, 2)},
		{"gather.f90", workload.LayoutGather(3*4096+5, 2, []string{"!HPF$ DISTRIBUTE a(CYCLIC)", "!HPF$ ALIGN b WITH a"})},
		{"transpose.f90", workload.LayoutTranspose(128, 2, []string{"!HPF$ DISTRIBUTE a(CYCLIC, CYCLIC)", "!HPF$ ALIGN b WITH a", "!HPF$ ALIGN c WITH a"})},
	}
	for _, e := range []cm2.Engine{cm2.EngineReference, cm2.EngineTranslated} {
		cm2.TestOnlyEngine = e
		for _, p := range progs {
			for _, workers := range []int{2, 8, -1} {
				rep, err := Verify(p.name, p.src, Options{ExecWorkers: workers})
				if err != nil {
					t.Errorf("%s engine=%d workers=%d: %v", p.name, e, workers, err)
					continue
				}
				if rep.Divergence != nil {
					t.Errorf("%s engine=%d workers=%d: unexpected divergence %s", p.name, e, workers, rep.Divergence)
				}
				if rep.Vars == 0 || rep.Elems == 0 {
					t.Errorf("%s engine=%d workers=%d: nothing compared (vars=%d elems=%d)", p.name, e, workers, rep.Vars, rep.Elems)
				}
			}
		}
	}
}

// TestBrokenBackendOpCaught: a deliberately corrupted backend result is
// caught with a first-divergence report naming the variable and the
// backend pair. The corruption rides the test-only perturbation hook,
// which fires after each routine dispatch on the shared PEAC executor.
func TestBrokenBackendOpCaught(t *testing.T) {
	cm2.TestOnlyPerturb = func(routine string, store *rt.Store) {
		if a := store.Arrays["u"]; a != nil && len(a.Data) > 0 {
			a.Data[0] += 1.0
		}
	}
	defer func() { cm2.TestOnlyPerturb = nil }()

	rep, err := Verify("swe.f90", workload.SWE(8, 1), Options{})
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("want ErrDivergence, got %v", err)
	}
	d := rep.Divergence
	if d == nil {
		t.Fatal("no divergence in report")
	}
	if d.Var != "u" {
		t.Errorf("divergence at %q, want u", d.Var)
	}
	if d.A != "interp" || (d.B != "cm2" && d.B != "cm5") {
		t.Errorf("backend pair %s/%s, want interp vs a machine backend", d.A, d.B)
	}
	if !strings.Contains(err.Error(), "u(") && !strings.Contains(err.Error(), "u:") {
		t.Errorf("error does not name the variable: %v", err)
	}
}

// TestVerifyCatchesOneULP is the exactness tripwire: the lowest
// mantissa bit of one element, flipped in the first machine's store, is
// a divergence naming the variable, the interpreter/machine pair and a
// distance of one ULP. Any tolerance would let it through.
func TestVerifyCatchesOneULP(t *testing.T) {
	const src = "program tripwire\nreal b(16)\nb = 0.25\nend program tripwire\n"
	flipped := math.Float64frombits(math.Float64bits(0.25) ^ 1)
	// Set, not toggled, after every dispatch, so the final store holds the
	// flipped value however the program is partitioned.
	cm2.TestOnlyPerturb = func(_ string, store *rt.Store) {
		if b := store.Arrays["b"]; b != nil {
			b.Data[4] = flipped
		}
	}
	defer func() { cm2.TestOnlyPerturb = nil }()

	rep, err := Verify("tripwire.f90", src, Options{})
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("want ErrDivergence, got %v", err)
	}
	d := rep.Divergence
	if d == nil || d.Var != "b" || d.Index != 4 || d.Kind != "real" {
		t.Fatalf("divergence %+v, want real b at index 4", d)
	}
	if d.A != "interp" || d.B != driver.Targets[0].Name {
		t.Errorf("backend pair %s/%s, want interp/%s", d.A, d.B, driver.Targets[0].Name)
	}
	if d.ULPs != 1 {
		t.Errorf("distance %d ulps, want 1", d.ULPs)
	}
}

// TestCompareReportsMissing: compare skips nothing. A variable one side
// lacks, or holds at another length, is a divergence of kind "missing",
// and a machine store without a declared scalar does not read it as 0.
func TestCompareReportsMissing(t *testing.T) {
	mk := func(name string) *state {
		s := newState(name, nil)
		s.declare("u", nir.Float64)
		s.setArray("u", []float64{1, 2}, []int{2}, []int{1})
		s.declare("x", nir.Float64)
		s.vals["x"] = []float64{3}
		return s
	}
	if d, vars, elems := compare(mk("a"), mk("b"), nil); d != nil || vars != 2 || elems != 3 {
		t.Fatalf("identical states: %v, %d vars, %d values; want agreement over 2 and 3", d, vars, elems)
	}
	cases := map[string]struct {
		change func(a, b *state)
		want   string
	}{
		"array absent":    {func(a, b *state) { delete(b.vals, "u") }, "u"},
		"array length":    {func(a, b *state) { b.vals["u"] = []float64{1, 2, 3} }, "u"},
		"scalar absent":   {func(a, b *state) { delete(a.vals, "x") }, "x"},
		"only b declares": {func(a, b *state) { b.declare("y", nir.Integer32); b.vals["y"] = []float64{1} }, "y"},
	}
	for name, c := range cases {
		a, b := mk("a"), mk("b")
		c.change(a, b)
		d, _, _ := compare(a, b, nil)
		if d == nil || d.Kind != "missing" || d.Var != c.want {
			t.Errorf("%s: divergence %+v, want missing %s", name, d, c.want)
		}
	}

	comp, err := f90y.Compile("s.f90", "program s\nreal x\nx = 2.0\nend program s\n", f90y.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := storeState("cm2", comp, &rt.Store{Arrays: map[string]*rt.Array{}, Scalars: map[string]float64{}}, nil)
	if v, ok := st.vals["x"]; ok {
		t.Errorf("absent scalar read as %v", v)
	}
}

// TestMaxElemsRefusesWithoutAllocating: the declared-size guard counts
// elements from the shapes, so refusing a 512 MB declaration allocates
// next to nothing.
func TestMaxElemsRefusesWithoutAllocating(t *testing.T) {
	const src = "program big\nreal a(8192,8192)\na = 1.0\nend program big\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Verify("big.f90", src, Options{MaxElems: 1 << 10})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "element limit") {
		t.Fatalf("want the element-limit refusal, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusal allocated %d bytes, want under 1 MB", got)
	}
}

// TestULPDist: the distance a divergence reports, symmetric, with ±0
// and two NaNs at 0.
func TestULPDist(t *testing.T) {
	cases := []struct {
		a, b float64
		want uint64
	}{
		{1.0, 1.0, 0},
		{1.0, math.Nextafter(1.0, 2.0), 1},
		{0.0, math.Copysign(0, -1), 0},
		{math.NaN(), math.NaN(), 0},
		{math.NaN(), 1.0, math.MaxUint64},
		{-1.0, math.Nextafter(-1.0, 0), 1},
		{1.0, 2.0, 1 << 52},
	}
	for _, c := range cases {
		if got := ULPDist(c.a, c.b); got != c.want {
			t.Errorf("ULPDist(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := ULPDist(c.b, c.a); got != c.want {
			t.Errorf("ULPDist(%v, %v) = %d, want %d (asymmetric)", c.b, c.a, got, c.want)
		}
	}
}

// TestSoakShort: a small sweep across both backends with the default
// plans completes with zero fault-invariance violations. This is the
// tier-1 soak smoke (runs under -race in make check).
func TestSoakShort(t *testing.T) {
	progs := []Program{
		{Name: "fig9", File: "fig9.f90", Source: workload.Fig9(8)},
		{Name: "stencil", File: "stencil.f90", Source: workload.Stencil(8, 2)},
	}
	svc := driver.New(4)
	rep, err := Soak(context.Background(), svc, progs, SoakOptions{
		Seeds:     []int64{1, 2},
		MaxCycles: 500_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := len(progs) * 2 * 2 * len(DefaultPlans())
	if rep.Runs != wantRuns {
		t.Errorf("runs = %d, want %d", rep.Runs, wantRuns)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("fault-invariance violations: %+v", rep.Violations)
	}
	if len(rep.Errors) != 0 {
		t.Errorf("run errors: %v", rep.Errors)
	}
}

// TestDiffResultsBitExact: the soak comparison is 0-ULP strict — a
// single-ULP nudge in one lane is a divergence, and identical results
// (including NaN lanes) are not.
func TestDiffResultsBitExact(t *testing.T) {
	mk := func(v float64) *cm2.Result {
		st := &rt.Store{
			Arrays:  map[string]*rt.Array{"u": {Kind: nir.Float64, Ext: []int{2}, Lo: []int{1}, Data: []float64{1.5, v}}},
			Scalars: map[string]float64{},
			Kinds:   map[string]nir.ScalarKind{"u": nir.Float64},
		}
		return &cm2.Result{Output: []string{"ok"}, Store: st}
	}
	if d := diffResults("a", "b", mk(2.5), mk(2.5)); d != nil {
		t.Errorf("identical results diverge: %s", d)
	}
	if d := diffResults("a", "b", mk(math.NaN()), mk(math.NaN())); d != nil {
		t.Errorf("matching NaN lanes diverge: %s", d)
	}
	d := diffResults("a", "b", mk(2.5), mk(math.Nextafter(2.5, 3)))
	if d == nil {
		t.Fatal("one-ULP nudge not caught")
	}
	if d.Var != "u" || d.Index != 1 {
		t.Errorf("divergence at %s[%d], want u[1]", d.Var, d.Index)
	}
}

// TestMinimizeZeroesIrrelevantChannels: only the channel the predicate
// depends on survives minimization.
func TestMinimizeZeroesIrrelevantChannels(t *testing.T) {
	plan := faults.Plan{Seed: 7, Drop: 0.1, Corrupt: 0.2, Delay: 0.3, Stall: 0.4, PEKill: 0.5,
		Events: []faults.Event{{At: 3, Kind: faults.KillPE, PE: 1}}}
	got := minimize(plan, func(p faults.Plan) bool { return p.Corrupt > 0 })
	if got.Corrupt != 0.2 {
		t.Errorf("corrupt zeroed: %+v", got)
	}
	if got.Drop != 0 || got.Delay != 0 || got.Stall != 0 || got.PEKill != 0 || got.Events != nil {
		t.Errorf("irrelevant channels survived: %+v", got)
	}
	if got.Seed != 7 {
		t.Errorf("seed changed: %+v", got)
	}
}

// TestSpecOfRoundTrips: the rendered spec parses back to the same plan.
func TestSpecOfRoundTrips(t *testing.T) {
	plan := faults.Plan{Seed: 9, Drop: 0.05, PEKill: 0.02, NoDegrade: true,
		Events: []faults.Event{{At: 10, Kind: faults.KillPE, PE: 3}, {At: 20, Kind: faults.FatalStop}}}
	spec := specOf(plan)
	got, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatalf("specOf produced unparseable %q: %v", spec, err)
	}
	if got.Seed != 9 || got.Drop != 0.05 || got.PEKill != 0.02 || !got.NoDegrade || len(got.Events) != 2 {
		t.Errorf("round trip lost fields: %q -> %+v", spec, got)
	}
}

// TestWriteRepro: the reproducer document carries schema, spec, source,
// and divergence, and lands where the report says.
func TestWriteRepro(t *testing.T) {
	dir := t.TempDir()
	v := Violation{Program: "swe n=8", Backend: "cm2", Seed: 3, Spec: "seed=3,drop=0.05",
		Divergence: &Divergence{Var: "u", Index: 2, A: "cm2/baseline", B: "cm2/faulted", AVal: "1", BVal: "2", Kind: "real"}}
	path, err := writeRepro(dir, v, "program t\nend program t\n")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Errorf("repro written to %s, want under %s", path, dir)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc repro
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "f90y-repro/v1" || doc.Spec != v.Spec || doc.Source == "" || doc.Divergence == nil {
		t.Errorf("repro document incomplete: %+v", doc)
	}
}

// TestSoakRecordsHardFaultAsError: a plan with an unrecoverable fatal
// event makes runs fail; the failures land in Errors, not Violations.
func TestSoakRecordsHardFaultAsError(t *testing.T) {
	svc := driver.New(2)
	rep, err := Soak(context.Background(), svc, []Program{
		{Name: "fig9", File: "fig9.f90", Source: workload.Fig9(8)},
	}, SoakOptions{
		Seeds: []int64{1},
		Plans: []faults.Plan{{Events: []faults.Event{{At: 1, Kind: faults.FatalStop}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) == 0 {
		t.Error("fatal-stop runs reported no errors")
	}
	if len(rep.Violations) != 0 {
		t.Errorf("hard faults misclassified as invariance violations: %+v", rep.Violations)
	}
}
