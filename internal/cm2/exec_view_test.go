package cm2

// Rotated streams: a routine parameter that names a shift view
// (rt/view.go) binds as a rotated window of the view's source. The
// translated form gathers the window's contiguous runs (env.rotated);
// the reference evaluator indexes element by element with the modular
// formula (fetchMem). These tests hold the one against the other, and
// both against a store in which the same shifts were copied.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"f90y/internal/faults"
	"f90y/internal/fe"
	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/obs"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// viewSyms declares user arrays a, d, e and shift temporaries t0, t1,
// t2 over one shape, the temporaries marked as views.
func viewSyms(sh shape.Shape) *lower.SymTab {
	syms := lower.NewSymTab()
	for _, name := range []string{"a", "d", "e", "t0", "t1", "t2"} {
		temp := strings.HasPrefix(name, "t")
		syms.Define(&lower.Symbol{Name: name, Kind: nir.Float64, Shape: sh, Temp: temp, ShiftView: temp,
			Type: nir.DField{Shape: sh, Elem: nir.Scalar{Kind: nir.Float64}}})
	}
	return syms
}

type viewShift struct {
	tgt, src   string
	shift, dim int
}

func (s viewShift) move(over shape.Shape) nir.Move {
	return nir.Move{Over: over, Moves: []nir.GuardedMove{{Mask: nir.True,
		Src: nir.FcnCall{Name: "cm_cshift", Args: []nir.Value{
			nir.AVar{Name: s.src, Field: nir.Everywhere{}}, nir.IntConst(int64(s.shift)), nir.IntConst(int64(s.dim))}},
		Tgt: nir.AVar{Name: s.tgt, Field: nir.Everywhere{}}}}}
}

// viewStore fills a and runs the shifts through the communication
// layer: healthy, so each marked temporary becomes a view, or under an
// injector that injects nothing, so each is copied.
func viewStore(t *testing.T, sh shape.Shape, shifts []viewShift, armed bool) *rt.Store {
	t.Helper()
	st := rt.NewStore(viewSyms(sh))
	for i := range st.Arrays["a"].Data {
		st.Arrays["a"].Data[i] = float64(i%29) - 11.5
	}
	comm := &rt.Comm{Store: st, PEs: 16, Cost: rt.DefaultCommCost}
	if armed {
		comm.Faults = faults.New(&faults.Plan{Seed: 7}, nil)
	}
	for _, s := range shifts {
		if err := comm.ExecMove(s.move(sh)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"t0", "t1", "t2"} {
		if owns := st.Arrays[name].Data != nil; owns != armed {
			t.Fatalf("%s owns memory: %v, armed: %v", name, owns, armed)
		}
	}
	return st
}

// viewRoutine reads the three temporaries every way a routine reads a
// stream: t0 through a dead load with two readers, t1 through a dead
// load a fused pair spans, t2 and t0 again as chained operands, t2 as a
// chained store mask.
func viewRoutine() *peac.Routine {
	return &peac.Routine{
		Name: "Pview",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "t0", Reg: 2},
			{Kind: peac.ArrayParam, Name: "t1", Reg: 3},
			{Kind: peac.ArrayParam, Name: "t2", Reg: 4},
			{Kind: peac.ArrayParam, Name: "a", Reg: 5},
			{Kind: peac.ArrayParam, Name: "d", Reg: 6},
			{Kind: peac.ArrayParam, Name: "e", Reg: 7},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(5), D: peac.V(1)},
			{Op: peac.FADDV, A: peac.V(0), B: peac.V(1), D: peac.V(2)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(3)},
			{Op: peac.FMULV, A: peac.V(2), B: peac.V(3), D: peac.V(2)},
			{Op: peac.FSUBV, A: peac.V(2), B: peac.V(0), D: peac.V(2)},
			{Op: peac.FADDV, A: peac.M(4), B: peac.M(2), D: peac.V(4)},
			{Op: peac.FMULV, A: peac.V(2), B: peac.V(4), D: peac.V(2)},
			{Op: peac.FSTRV, A: peac.V(2), D: peac.M(6)},
			{Op: peac.FSTRV, A: peac.V(4), C: peac.M(4), D: peac.M(7)},
		},
	}
}

// TestExecViewPlan pins the plan the differential below relies on: the
// load of t0 is elided and free to execute, the load of t1 is elided and
// spanned by the fused pair around it.
func TestExecViewPlan(t *testing.T) {
	p := decode(viewRoutine())
	if ld := p.steps[0]; !ld.elided || ld.crossed {
		t.Errorf("load of t0: elided %v, crossed %v; want an elided load no pair spans", ld.elided, ld.crossed)
	}
	if ld := p.steps[3]; !ld.elided || !ld.crossed || p.steps[2].pair != 4 {
		t.Errorf("load of t1: elided %v, crossed %v, pair %d; want a load the pair (2,4) spans", ld.elided, ld.crossed, p.steps[2].pair)
	}
}

// TestExecViewDifferential: rotated streams, translated against the
// reference evaluator and against copied shifts, over sizes around the
// strip, chunk and fan-out boundaries, a grid whose strips straddle
// rows, a rank-3 grid, and every worker count; the grids past two chunks
// fan out at more than one worker.
func TestExecViewDifferential(t *testing.T) {
	type geometry struct {
		ext    []int
		shifts []viewShift
	}
	var cases []geometry
	for _, n := range []int{1, 7, 511, 512, 513, 4095, 4096, 4097, 8192, 8193} {
		cases = append(cases, geometry{[]int{n}, []viewShift{
			{"t0", "a", 3, 1}, {"t1", "t0", -5, 1}, {"t2", "a", n + 1, 1}}})
	}
	cases = append(cases,
		geometry{[]int{3, 1365}, []viewShift{{"t0", "a", 1, 1}, {"t1", "t0", -1, 2}, {"t2", "a", 700, 2}}},
		geometry{[]int{1365, 3}, []viewShift{{"t0", "a", -1, 2}, {"t1", "t0", 2, 2}, {"t2", "a", -400, 1}}},
		geometry{[]int{64, 65}, []viewShift{{"t0", "a", 0, 1}, {"t1", "a", 64, 1}, {"t2", "a", 1, 2}}},
		geometry{[]int{17, 5, 53}, []viewShift{{"t0", "a", 2, 2}, {"t1", "t0", -7, 3}, {"t2", "t1", 5, 1}}},
		geometry{[]int{128, 65}, []viewShift{{"t0", "a", 0, 1}, {"t1", "a", 128, 1}, {"t2", "a", 1, 2}}},
		geometry{[]int{17, 10, 53}, []viewShift{{"t0", "a", 2, 2}, {"t1", "t0", -7, 3}, {"t2", "t1", 5, 1}}},
	)
	for _, g := range cases {
		sh := shape.Of(g.ext...)
		n := shape.Size(sh)
		label := fmt.Sprint(g.ext)

		// The standard: copied shifts under the reference evaluator.
		want := viewStore(t, sh, g.shifts, true)
		if err := execEngine(EngineReference, fresh(viewRoutine()), n, want, ExecOpts{}); err != nil {
			t.Fatalf("%s: copies: %v", label, err)
		}
		for _, sel := range selections {
			for _, w := range []int{1, 2, -1} {
				r := fresh(viewRoutine())
				for pass := 1; pass <= 2; pass++ {
					st, col := viewStore(t, sh, g.shifts, false), obs.NewCollector()
					if err := execEngine(sel.e, r, n, st, ExecOpts{Workers: w, Rec: col}); err != nil {
						t.Fatalf("%s: %s workers=%d dispatch %d: %v", label, sel.name, w, pass, err)
					}
					sameBits(t, fmt.Sprintf("%s: %s workers=%d", label, sel.name, w), st, want, "d", "e")
					if got := col.Counters()["exec/shift-view/bound"]; got != 3 {
						t.Fatalf("%s: %v views bound, want 3", label, got)
					}
					if len(st.Materialized) != 0 {
						t.Fatalf("%s: views materialized: %v", label, st.Materialized)
					}
				}
			}
		}
	}
}

// TestExecViewRefusedFastPath: a dispatch refused its fast path (the
// numeric plane is on) runs every step as decoded, loads of rotated
// streams included, to the same values on two workers (91² elements
// are past two chunks, so they fan out).
func TestExecViewRefusedFastPath(t *testing.T) {
	sh := shape.Of(91, 91)
	shifts := []viewShift{{"t0", "a", 1, 1}, {"t1", "t0", -1, 2}, {"t2", "a", 1, 2}}
	want := viewStore(t, sh, shifts, true)
	if err := execEngine(EngineReference, fresh(viewRoutine()), 91*91, want, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	st := viewStore(t, sh, shifts, false)
	num := &rt.Numeric{Mode: rt.NumericRecord}
	if err := execEngine(EngineTranslated, fresh(viewRoutine()), 91*91, st, ExecOpts{Num: num, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "numeric plane on", st, want, "d", "e")
}

// TestExecViewStoreThroughView: a routine that stores through a
// temporary holding no memory is a compiler bug, reported before
// anything runs.
func TestExecViewStoreThroughView(t *testing.T) {
	sh := shape.Of(8)
	st := viewStore(t, sh, []viewShift{{"t0", "a", 1, 1}, {"t1", "a", 1, 1}, {"t2", "a", 1, 1}}, false)
	r := &peac.Routine{Name: "Pbad",
		Params: []peac.Param{{Kind: peac.ArrayParam, Name: "a", Reg: 2}, {Kind: peac.ArrayParam, Name: "t0", Reg: 3}},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FSTRV, A: peac.V(0), D: peac.M(3)},
		}}
	for _, sel := range selections {
		err := execEngine(sel.e, fresh(r), 8, st, ExecOpts{})
		if err == nil || !strings.Contains(err.Error(), `"t0"`) {
			t.Errorf("%s: error %v, want one naming t0", sel.name, err)
		}
	}
}

// TestStaleViewFailsLoudly is the safety net under the compiler's
// analysis. The host program below marks t0 by hand although a routine
// writes its source between the shift and the reader — partition would
// refuse it (source-written). The run must fail naming the temporary,
// on either evaluator, and never return a value.
func TestStaleViewFailsLoudly(t *testing.T) {
	sh := shape.Of(8)
	copyTo := func(name, dst, src string) fe.CallNode {
		return fe.CallNode{Over: sh, Routine: &peac.Routine{Name: name,
			Params: []peac.Param{{Kind: peac.ArrayParam, Name: src, Reg: 2}, {Kind: peac.ArrayParam, Name: dst, Reg: 3}},
			Body: []peac.Instr{
				{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
				{Op: peac.FSTRV, A: peac.V(0), D: peac.M(3)},
			}}}
	}
	prog := &fe.Program{Name: "stale", Syms: viewSyms(sh), Ops: []fe.Op{
		fe.Comm{Move: viewShift{"t0", "a", 1, 1}.move(sh)},
		copyTo("Pwrite", "a", "d"),
		copyTo("Pread", "e", "t0"),
	}}
	for _, sel := range selections {
		TestOnlyEngine = sel.e
		_, err := Default().RunCtx(context.Background(), prog, nil, nil, nil)
		TestOnlyEngine = EngineTranslated
		if !errors.Is(err, rt.ErrStaleView) || !strings.Contains(err.Error(), `"t0"`) {
			t.Errorf("%s: error %v, want rt.ErrStaleView naming t0", sel.name, err)
		}
	}
	// The same program with the write after the reader is what the
	// compiler accepts, and runs.
	prog.Ops[1], prog.Ops[2] = prog.Ops[2], prog.Ops[1]
	if _, err := Default().RunCtx(context.Background(), prog, nil, nil, nil); err != nil {
		t.Errorf("write after the last read: %v", err)
	}
}
