package partition

import (
	"reflect"
	"testing"

	"f90y/internal/fe"
	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/obs"
	"f90y/internal/opt"
	"f90y/internal/peac"
	"f90y/internal/shape"
	"f90y/internal/workload"
)

// The hand-built host programs below use three user arrays a, b, c and
// temporaries t0.. over one 8-element shape; `copyTo` builds the routine
// "dst <- src..." (it loads every source and stores the first through
// dst), which is all the analysis looks at.

var viewShape = shape.Of(8)

func viewSyms(temps ...string) *lower.SymTab {
	syms := lower.NewSymTab()
	def := func(name string, temp bool) {
		syms.Define(&lower.Symbol{Name: name, Kind: nir.Float32, Shape: viewShape, Temp: temp,
			Type: nir.DField{Shape: viewShape, Elem: nir.Scalar{Kind: nir.Float32}}})
	}
	for _, n := range []string{"a", "b", "c"} {
		def(n, false)
	}
	for _, n := range temps {
		def(n, true)
	}
	syms.Define(&lower.Symbol{Name: "s", Kind: nir.Float32, Type: nir.Scalar{Kind: nir.Float32}})
	return syms
}

func whole(name string) nir.AVar { return nir.AVar{Name: name, Field: nir.Everywhere{}} }

func elem(name string, i int64) nir.AVar {
	return nir.AVar{Name: name, Field: nir.Subscript{Subs: []nir.Value{nir.IntConst(i)}}}
}

func intrinsic(tgt nir.Value, fn string, args ...nir.Value) fe.Comm {
	return fe.Comm{Move: nir.Move{Over: viewShape, Moves: []nir.GuardedMove{
		{Mask: nir.True, Src: nir.FcnCall{Name: fn, Args: args}, Tgt: tgt}}}}
}

func cshift(tgt, src string, shift int64) fe.Comm {
	return intrinsic(whole(tgt), "cm_cshift", whole(src), nir.IntConst(shift), nir.IntConst(1))
}

func copyTo(dst string, srcs ...string) fe.CallNode {
	r := &peac.Routine{Name: "Pk"}
	for i, s := range srcs {
		r.Params = append(r.Params, peac.Param{Kind: peac.ArrayParam, Name: s, Reg: i})
		r.Body = append(r.Body, peac.Instr{Op: peac.FLODV, A: peac.M(i), D: peac.V(i)})
	}
	r.Params = append(r.Params, peac.Param{Kind: peac.ArrayParam, Name: dst, Reg: len(srcs)})
	r.Body = append(r.Body, peac.Instr{Op: peac.FSTRV, A: peac.V(0), D: peac.M(len(srcs))})
	return fe.CallNode{Routine: r, Over: viewShape}
}

func TestShiftViewDecisions(t *testing.T) {
	hostWrite := fe.Assign{Tgt: elem("a", 2), Src: nir.FloatConst(7)}
	cases := []struct {
		name    string
		temps   []string
		ops     []fe.Op
		marked  []string
		refused map[string]float64
	}{
		{name: "shift then reader", temps: []string{"t0"},
			ops:    []fe.Op{cshift("t0", "a", 1), copyTo("b", "t0")},
			marked: []string{"t0"}},
		{name: "chain", temps: []string{"t0", "t1"},
			ops:    []fe.Op{cshift("t0", "a", 1), cshift("t1", "t0", -1), copyTo("b", "t1", "t0")},
			marked: []string{"t0", "t1"}},
		{name: "inside a serial DO, source written after the last use", temps: []string{"t0"},
			ops: []fe.Op{fe.DoSerial{S: shape.Interval{Lo: 1, Hi: 3, Serial: true}, Body: []fe.Op{
				cshift("t0", "a", 1), copyTo("b", "t0"), copyTo("a", "b")}}},
			marked: []string{"t0"}},
		{name: "hoisted over a loop that leaves the source alone", temps: []string{"t0"},
			ops: []fe.Op{cshift("t0", "a", 1),
				fe.DoSerial{S: shape.Interval{Lo: 1, Hi: 3, Serial: true}, Body: []fe.Op{copyTo("c", "b")}},
				copyTo("b", "t0")},
			marked: []string{"t0"}},
		{name: "never read", temps: []string{"t0"},
			ops: []fe.Op{cshift("t0", "a", 1)}, marked: []string{"t0"}},

		{name: "eoshift", temps: []string{"t0"},
			ops: []fe.Op{intrinsic(whole("t0"), "cm_eoshift", whole("a"), nir.IntConst(1), nir.FloatConst(0), nir.IntConst(1)),
				copyTo("b", "t0")},
			refused: map[string]float64{refusedEoshift: 1}},
		{name: "section target", temps: []string{"t0"},
			ops: []fe.Op{intrinsic(nir.AVar{Name: "t0", Field: nir.Section{Subs: []nir.Triplet{{Full: true}}}},
				"cm_cshift", whole("a"), nir.IntConst(1), nir.IntConst(1)), copyTo("b", "t0")},
			refused: map[string]float64{refusedNotWhole: 1}},
		{name: "shift of itself", temps: []string{"t0"},
			ops:     []fe.Op{cshift("t0", "t0", 1), copyTo("b", "t0")},
			refused: map[string]float64{refusedNotWhole: 1}},
		{name: "read in a nested block", temps: []string{"t0"},
			ops: []fe.Op{cshift("t0", "a", 1),
				fe.DoSerial{S: shape.Interval{Lo: 1, Hi: 3, Serial: true}, Body: []fe.Op{copyTo("b", "t0")}}},
			refused: map[string]float64{refusedOtherBlock: 1}},
		{name: "read before the shift", temps: []string{"t0"},
			ops: []fe.Op{fe.DoSerial{S: shape.Interval{Lo: 1, Hi: 3, Serial: true}, Body: []fe.Op{
				copyTo("b", "t0"), cshift("t0", "a", 1)}}},
			refused: map[string]float64{refusedOtherBlock: 1}},
		{name: "host element read", temps: []string{"t0"},
			ops: []fe.Op{cshift("t0", "a", 1),
				fe.Assign{Tgt: nir.SVar{Name: "s"}, Src: elem("t0", 3)}},
			refused: map[string]float64{refusedHostRead: 1}},
		{name: "printed", temps: []string{"t0"},
			ops:     []fe.Op{cshift("t0", "a", 1), fe.Print{Args: []nir.Value{whole("t0")}}},
			refused: map[string]float64{refusedHostRead: 1}},
		{name: "reduced", temps: []string{"t0"},
			ops: []fe.Op{cshift("t0", "a", 1),
				fe.Comm{Move: nir.Move{Moves: []nir.GuardedMove{{Mask: nir.True,
					Src: nir.FcnCall{Name: "cm_reduce_sum", Args: []nir.Value{whole("t0")}}, Tgt: nir.SVar{Name: "s"}}}}}},
			refused: map[string]float64{refusedCommRead: 1}},
		{name: "source of a shift into a user array", temps: []string{"t0"},
			ops:     []fe.Op{cshift("t0", "a", 1), cshift("b", "t0", 1)},
			refused: map[string]float64{refusedCommRead: 1}},
		{name: "source of a refused shift", temps: []string{"t0", "t1"},
			ops: []fe.Op{cshift("t0", "a", 1), cshift("t1", "t0", 1),
				fe.Print{Args: []nir.Value{whole("t1")}}},
			refused: map[string]float64{refusedHostRead: 1, refusedCommRead: 1}},
		{name: "shifted into twice", temps: []string{"t0"},
			ops:     []fe.Op{cshift("t0", "a", 1), cshift("t0", "b", 1), copyTo("c", "t0")},
			refused: map[string]float64{refusedCommRead: 1}},
		{name: "routine stores the temporary", temps: []string{"t0"},
			ops:     []fe.Op{cshift("t0", "a", 1), copyTo("t0", "b")},
			refused: map[string]float64{refusedRoutineStores: 1}},
		{name: "consumer stores the source", temps: []string{"t0"},
			ops:     []fe.Op{cshift("t0", "a", 1), copyTo("a", "t0")},
			refused: map[string]float64{refusedConsumerStores: 1}},
		{name: "source written by a routine in between", temps: []string{"t0"},
			ops:     []fe.Op{cshift("t0", "a", 1), copyTo("a", "b"), copyTo("c", "t0")},
			refused: map[string]float64{refusedSourceWritten: 1}},
		{name: "source written by a comm in between", temps: []string{"t0"},
			ops:     []fe.Op{cshift("t0", "a", 1), cshift("a", "b", 1), copyTo("c", "t0")},
			refused: map[string]float64{refusedSourceWritten: 1}},
		{name: "source written on the host in between", temps: []string{"t0"},
			ops:     []fe.Op{cshift("t0", "a", 1), hostWrite, copyTo("c", "t0")},
			refused: map[string]float64{refusedSourceWritten: 1}},
		{name: "source written in a nested block in between", temps: []string{"t0"},
			ops: []fe.Op{cshift("t0", "a", 1),
				fe.If{Cond: nir.True, Then: []fe.Op{fe.While{Cond: nir.True, Body: []fe.Op{hostWrite}}}},
				copyTo("c", "t0")},
			refused: map[string]float64{refusedSourceWritten: 1}},
		{name: "root of a chain written in between", temps: []string{"t0", "t1"},
			ops: []fe.Op{cshift("t0", "a", 1), cshift("t1", "t0", 1), copyTo("a", "b"), copyTo("c", "t1")},
			// t1 would read a, which moved on; t0 then feeds a copying shift.
			refused: map[string]float64{refusedSourceWritten: 1, refusedCommRead: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			syms, col := viewSyms(tc.temps...), obs.NewCollector()
			n := markShiftViews(tc.ops, syms, col)
			var marked []string
			for _, name := range tc.temps {
				if sym, _ := syms.Lookup(name); sym.ShiftView {
					marked = append(marked, name)
				}
			}
			if !reflect.DeepEqual(marked, tc.marked) || n != len(tc.marked) {
				t.Errorf("marked %v (count %d), want %v", marked, n, tc.marked)
			}
			want := map[string]float64{"partition/shift-view/marked": float64(len(tc.marked))}
			for reason, k := range tc.refused {
				want["partition/shift-view/refused/"+reason] = k
			}
			if got := col.Counters(); !reflect.DeepEqual(got, want) {
				t.Errorf("counters %v, want %v", got, want)
			}
			for _, name := range []string{"a", "b", "c"} {
				if sym, _ := syms.Lookup(name); sym.ShiftView {
					t.Errorf("user array %s marked", name)
				}
			}
		})
	}
}

// TestShiftViewsOnSWE: every CSHIFT of the paper's benchmark — one
// temporary per occurrence, chains included — is a view; the statistics
// and the counter agree.
func TestShiftViewsOnSWE(t *testing.T) {
	prog, stats := compile(t, workload.SWE(32, 2), opt.Default)
	temps := 0
	for _, sym := range prog.Syms.All() {
		if sym.ShiftView {
			temps++
		}
		if sym.ShiftView && !sym.Temp {
			t.Errorf("%s is marked and is not a temporary", sym.Name)
		}
	}
	if temps != 28 || stats.ShiftViews != 28 {
		t.Errorf("%d symbols marked, stats say %d; want 28", temps, stats.ShiftViews)
	}
}
