package hostvm

import (
	"context"
	"testing"

	"f90y/internal/fe"
	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

func testStore() *rt.Store {
	syms := lower.NewSymTab()
	syms.Define(&lower.Symbol{Name: "i", Kind: nir.Integer32, Type: nir.Scalar{Kind: nir.Integer32}})
	syms.Define(&lower.Symbol{Name: "x", Kind: nir.Float64, Type: nir.Scalar{Kind: nir.Float64}})
	syms.Define(&lower.Symbol{Name: "a", Kind: nir.Float64, Shape: shape.Of(8),
		Type: nir.DField{Shape: shape.Of(8), Elem: nir.Scalar{Kind: nir.Float64}}, Lowers: []int{1}})
	return rt.NewStore(syms)
}

func runOps(t *testing.T, ops []fe.Op, store *rt.Store, hooks Hooks) *VM {
	t.Helper()
	vm, err := RunCtx(context.Background(), &fe.Program{Name: "t", Ops: ops}, store, DefaultCost, hooks, nil)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func iv(n int64) nir.Value   { return nir.IntConst(n) }
func sv(n string) nir.Value  { return nir.SVar{Name: n} }
func fv(f float64) nir.Value { return nir.FloatConst(f) }

func TestScalarAssignAndArithmetic(t *testing.T) {
	st := testStore()
	runOps(t, []fe.Op{
		fe.Assign{Tgt: sv("i"), Src: iv(3)},
		fe.Assign{Tgt: sv("x"), Src: nir.Binary{Op: nir.Mul, L: sv("i"), R: fv(2.5)}},
	}, st, Hooks{})
	if st.Scalars["i"] != 3 || st.Scalars["x"] != 7.5 {
		t.Fatalf("i=%v x=%v", st.Scalars["i"], st.Scalars["x"])
	}
}

func TestElementStoreAndLoad(t *testing.T) {
	st := testStore()
	runOps(t, []fe.Op{
		fe.Assign{Tgt: nir.AVar{Name: "a", Field: nir.Subscript{Subs: []nir.Value{iv(3)}}}, Src: fv(42)},
		fe.Assign{Tgt: sv("x"), Src: nir.AVar{Name: "a", Field: nir.Subscript{Subs: []nir.Value{iv(3)}}}},
	}, st, Hooks{})
	if st.Arrays["a"].Data[2] != 42 || st.Scalars["x"] != 42 {
		t.Fatalf("a=%v x=%v", st.Arrays["a"].Data, st.Scalars["x"])
	}
}

func TestMaskedAssignSkips(t *testing.T) {
	st := testStore()
	runOps(t, []fe.Op{
		fe.Assign{Tgt: sv("x"), Src: fv(1), Mask: nir.BoolConst(false)},
		fe.Assign{Tgt: sv("i"), Src: iv(1), Mask: nir.BoolConst(true)},
	}, st, Hooks{})
	if st.Scalars["x"] != 0 || st.Scalars["i"] != 1 {
		t.Fatalf("x=%v i=%v", st.Scalars["x"], st.Scalars["i"])
	}
}

func TestIfWhileControlFlow(t *testing.T) {
	st := testStore()
	// while i < 5 { i++ }; if i == 5 then x = 1 else x = 2
	runOps(t, []fe.Op{
		fe.While{
			Cond: nir.Binary{Op: nir.Less, L: sv("i"), R: iv(5)},
			Body: []fe.Op{fe.Assign{Tgt: sv("i"), Src: nir.Binary{Op: nir.Plus, L: sv("i"), R: iv(1)}}},
		},
		fe.If{
			Cond: nir.Binary{Op: nir.Equals, L: sv("i"), R: iv(5)},
			Then: []fe.Op{fe.Assign{Tgt: sv("x"), Src: fv(1)}},
			Else: []fe.Op{fe.Assign{Tgt: sv("x"), Src: fv(2)}},
		},
	}, st, Hooks{})
	if st.Scalars["i"] != 5 || st.Scalars["x"] != 1 {
		t.Fatalf("i=%v x=%v", st.Scalars["i"], st.Scalars["x"])
	}
}

func TestDoSerialWithLocalUnder(t *testing.T) {
	st := testStore()
	S := shape.Interval{Lo: 1, Hi: 8, Serial: true, Tag: "do0"}
	coord := nir.LocalUnder{S: S, Dim: 1}
	runOps(t, []fe.Op{
		fe.DoSerial{S: S, Body: []fe.Op{
			fe.Assign{
				Tgt: nir.AVar{Name: "a", Field: nir.Subscript{Subs: []nir.Value{coord}}},
				Src: nir.Binary{Op: nir.Mul, L: coord, R: iv(10)},
			},
		}},
	}, st, Hooks{})
	for i := 0; i < 8; i++ {
		if st.Arrays["a"].Data[i] != float64((i+1)*10) {
			t.Fatalf("a = %v", st.Arrays["a"].Data)
		}
	}
}

func TestNestedLoopsDistinguishedByTag(t *testing.T) {
	st := testStore()
	outer := shape.Interval{Lo: 1, Hi: 2, Serial: true, Tag: "do0"}
	inner := shape.Interval{Lo: 1, Hi: 2, Serial: true, Tag: "do1"}
	oc := nir.LocalUnder{S: outer, Dim: 1}
	ic := nir.LocalUnder{S: inner, Dim: 1}
	// x accumulates 10*outer + inner over all 4 iterations = 10*(1+1+2+2)+(1+2+1+2) = 66.
	acc := nir.Binary{Op: nir.Plus, L: sv("x"),
		R: nir.Binary{Op: nir.Plus, R: ic,
			L: nir.Binary{Op: nir.Mul, L: iv(10), R: oc}}}
	runOps(t, []fe.Op{
		fe.DoSerial{S: outer, Body: []fe.Op{
			fe.DoSerial{S: inner, Body: []fe.Op{
				fe.Assign{Tgt: sv("x"), Src: acc},
			}},
		}},
	}, st, Hooks{})
	if st.Scalars["x"] != 66 {
		t.Fatalf("x = %v", st.Scalars["x"])
	}
}

func TestDispatchAndCommHooks(t *testing.T) {
	st := testStore()
	var dispatched, commed int
	r := &peac.Routine{Name: "Pk0", Params: []peac.Param{{Kind: peac.ArrayParam, Name: "a", Reg: 2}}}
	hooks := Hooks{
		Dispatch: func(rt *peac.Routine, over shape.Shape) error { dispatched++; return nil },
		Comm:     func(m nir.Move) error { commed++; return nil },
	}
	vm := runOps(t, []fe.Op{
		fe.CallNode{Routine: r, Over: shape.Of(8)},
		fe.Comm{Move: nir.Move{}},
	}, st, hooks)
	if dispatched != 1 || commed != 1 {
		t.Fatalf("dispatched=%d commed=%d", dispatched, commed)
	}
	// Dispatch charged FIFO costs.
	if vm.Cycles < DefaultCost.DispatchStart {
		t.Fatalf("cycles = %v", vm.Cycles)
	}
}

func TestPrintFormatting(t *testing.T) {
	st := testStore()
	st.Scalars["i"] = 42
	st.Scalars["x"] = 1.5
	for k := range st.Arrays["a"].Data {
		st.Arrays["a"].Data[k] = float64(k)
	}
	vm := runOps(t, []fe.Op{
		fe.Print{Args: []nir.Value{nir.StrConst{S: "vals"}, sv("i"), sv("x")}},
		fe.Print{Args: []nir.Value{nir.AVar{Name: "a", Field: nir.Everywhere{}}}},
	}, st, Hooks{})
	if vm.Output[0] != "vals 42 1.5" {
		t.Fatalf("line 0 = %q", vm.Output[0])
	}
	if vm.Output[1] != "0 1 2 3 4 5 6 7" {
		t.Fatalf("line 1 = %q", vm.Output[1])
	}
}

func TestStopUnwinds(t *testing.T) {
	st := testStore()
	vm := runOps(t, []fe.Op{
		fe.Assign{Tgt: sv("i"), Src: iv(1)},
		fe.Stop{},
		fe.Assign{Tgt: sv("i"), Src: iv(2)},
	}, st, Hooks{})
	if !vm.Stopped() || st.Scalars["i"] != 1 {
		t.Fatalf("stopped=%v i=%v", vm.Stopped(), st.Scalars["i"])
	}
}

func TestHostCostAccumulates(t *testing.T) {
	st := testStore()
	vm1 := runOps(t, []fe.Op{fe.Assign{Tgt: sv("i"), Src: iv(1)}}, st, Hooks{})
	vm2 := runOps(t, []fe.Op{
		fe.Assign{Tgt: sv("i"), Src: iv(1)},
		fe.Assign{Tgt: sv("x"), Src: nir.Binary{Op: nir.Plus, L: sv("i"), R: iv(1)}},
	}, st, Hooks{})
	if vm2.Cycles <= vm1.Cycles {
		t.Fatalf("cost not monotone: %v vs %v", vm1.Cycles, vm2.Cycles)
	}
}

func TestRuntimeErrors(t *testing.T) {
	st := testStore()
	cases := [][]fe.Op{
		{fe.Assign{Tgt: sv("ghost"), Src: iv(1)}},
		{fe.Assign{Tgt: nir.AVar{Name: "a", Field: nir.Subscript{Subs: []nir.Value{iv(99)}}}, Src: iv(1)}},
		{fe.Assign{Tgt: sv("x"), Src: nir.Binary{Op: nir.Div, L: iv(1), R: iv(0)}}},
	}
	for i, ops := range cases {
		if _, err := RunCtx(context.Background(), &fe.Program{Ops: ops}, st, DefaultCost, Hooks{}, nil); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
