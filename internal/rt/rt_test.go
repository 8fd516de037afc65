package rt

import (
	"math"
	"testing"
	"testing/quick"

	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/parser"
	"f90y/internal/shape"
)

func storeFor(t *testing.T, src string) (*Store, *lower.SymTab) {
	t.Helper()
	tree, err := parser.Parse("t.f90", src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lower.Lower(tree)
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(mod.Syms), mod.Syms
}

func TestStoreAllocation(t *testing.T) {
	st, _ := storeFor(t, `program t
integer, parameter :: n = 8
real, array(n,n) :: a
integer v(n)
real s
s = 1.0
a = s
v = 1
end program t`)
	if st.Arrays["a"] == nil || st.Arrays["a"].Size() != 64 {
		t.Fatalf("a: %+v", st.Arrays["a"])
	}
	if st.Arrays["v"].Kind != nir.Integer32 {
		t.Fatalf("v kind: %v", st.Arrays["v"].Kind)
	}
	if _, ok := st.Scalars["s"]; !ok {
		t.Fatal("s missing")
	}
	if _, ok := st.Scalars["n"]; ok {
		t.Fatal("PARAMETER must not be allocated")
	}
}

func TestArrayOffsetColumnMajor(t *testing.T) {
	a := NewArray(nir.Float64, shape.Of(4, 3))
	off, err := a.Offset([]int{2, 1})
	if err != nil || off != 1 {
		t.Fatalf("offset(2,1) = %d, %v", off, err)
	}
	off, _ = a.Offset([]int{1, 2})
	if off != 4 {
		t.Fatalf("offset(1,2) = %d", off)
	}
	if _, err := a.Offset([]int{5, 1}); err == nil {
		t.Fatal("out of bounds accepted")
	}
	// Coord inverts offset.
	if a.Coord(4, 1) != 1 || a.Coord(4, 2) != 2 {
		t.Fatalf("coord(4) = (%d,%d)", a.Coord(4, 1), a.Coord(4, 2))
	}
}

func TestIntegerStoreTruncates(t *testing.T) {
	a := NewArray(nir.Integer32, shape.Of(2))
	a.StoreVal(0, 3.9)
	a.StoreVal(1, -3.9)
	if a.Data[0] != 3 || a.Data[1] != -3 {
		t.Fatalf("trunc: %v", a.Data)
	}
}

func TestEvalScalarExpressions(t *testing.T) {
	st, _ := storeFor(t, "program t\ninteger i\nreal x\ni = 1\nx = 1.0\nend program t")
	st.Scalars["i"] = 7
	st.Scalars["x"] = 2.5
	ctx := &EvalCtx{Store: st}
	cases := []struct {
		v    nir.Value
		want float64
	}{
		{nir.Binary{Op: nir.Plus, L: nir.SVar{Name: "i"}, R: nir.IntConst(3)}, 10},
		{nir.Binary{Op: nir.Div, L: nir.IntConst(7), R: nir.IntConst(2)}, 3},
		{nir.Binary{Op: nir.Div, L: nir.FloatConst(7), R: nir.FloatConst(2)}, 3.5},
		{nir.Binary{Op: nir.Mod, L: nir.IntConst(-7), R: nir.IntConst(3)}, -1},
		{nir.Binary{Op: nir.Pow, L: nir.SVar{Name: "x"}, R: nir.IntConst(2)}, 6.25},
		{nir.Unary{Op: nir.Neg, X: nir.SVar{Name: "x"}}, -2.5},
		{nir.Binary{Op: nir.Less, L: nir.SVar{Name: "i"}, R: nir.IntConst(10)}, 1},
		{nir.Unary{Op: nir.NotU, X: nir.BoolConst(false)}, 1},
		{nir.Binary{Op: nir.Max, L: nir.IntConst(3), R: nir.IntConst(9)}, 9},
	}
	for _, c := range cases {
		got, _, err := Eval(c.v, ctx)
		if err != nil || got != c.want {
			t.Errorf("%s = %v (%v), want %v", nir.PrintValue(c.v), got, err, c.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	st := &Store{Arrays: map[string]*Array{}, Scalars: map[string]float64{}, Kinds: map[string]nir.ScalarKind{}}
	ctx := &EvalCtx{Store: st}
	for _, v := range []nir.Value{
		nir.SVar{Name: "ghost"},
		nir.Binary{Op: nir.Div, L: nir.IntConst(1), R: nir.IntConst(0)},
		nir.LocalUnder{S: shape.Of(4), Dim: 1},
		nir.FcnCall{Name: "cm_cshift"},
	} {
		if _, _, err := Eval(v, ctx); err == nil {
			t.Errorf("no error for %s", nir.PrintValue(v))
		}
	}
}

func newComm(st *Store) *Comm {
	return &Comm{Store: st, PEs: 64, Cost: DefaultCommCost}
}

func TestCommCshift(t *testing.T) {
	st, _ := storeFor(t, "program t\ninteger a(4), b(4)\na = 0\nb = 0\nend program t")
	for i := 0; i < 4; i++ {
		st.Arrays["a"].Data[i] = float64(i + 1)
	}
	c := newComm(st)
	mv := nir.Move{Over: shape.Of(4), Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src: nir.FcnCall{Name: "cm_cshift", Args: []nir.Value{
			nir.AVar{Name: "a", Field: nir.Everywhere{}}, nir.IntConst(1), nir.IntConst(1)}},
		Tgt: nir.AVar{Name: "b", Field: nir.Everywhere{}},
	}}}
	if err := c.ExecMove(mv); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 4, 1}
	for i, w := range want {
		if st.Arrays["b"].Data[i] != w {
			t.Fatalf("b = %v", st.Arrays["b"].Data)
		}
	}
	if c.Cycles <= 0 || c.Calls != 1 {
		t.Fatalf("accounting: %v cycles, %d calls", c.Cycles, c.Calls)
	}
}

func TestCommReduce(t *testing.T) {
	st, _ := storeFor(t, "program t\nreal a(8)\nreal s\na = 0\ns = 0\nend program t")
	for i := range st.Arrays["a"].Data {
		st.Arrays["a"].Data[i] = float64(i)
	}
	c := newComm(st)
	mv := nir.Move{Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src:  nir.FcnCall{Name: "cm_reduce_sum", Args: []nir.Value{nir.AVar{Name: "a", Field: nir.Everywhere{}}}},
		Tgt:  nir.SVar{Name: "s"},
	}}}
	if err := c.ExecMove(mv); err != nil {
		t.Fatal(err)
	}
	if st.Scalars["s"] != 28 {
		t.Fatalf("s = %v", st.Scalars["s"])
	}
}

func TestGeneralMoveMisalignedSection(t *testing.T) {
	// §2.1: L(32:64) = L(96:128) scaled down — an overlapping shifted copy
	// through the router, honoring evaluate-before-store.
	st, _ := storeFor(t, "program t\ninteger l(8)\nl = 0\nend program t")
	for i := range st.Arrays["l"].Data {
		st.Arrays["l"].Data[i] = float64(i + 1)
	}
	c := newComm(st)
	sec := func(lo, hi int) nir.Field {
		return nir.Section{Subs: []nir.Triplet{{Lo: nir.IntConst(int64(lo)), Hi: nir.IntConst(int64(hi))}}}
	}
	mv := nir.Move{Over: shape.Of(4), Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src:  nir.AVar{Name: "l", Field: sec(3, 6)},
		Tgt:  nir.AVar{Name: "l", Field: sec(1, 4)},
	}}}
	if err := c.ExecMove(mv); err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 4, 5, 6, 5, 6, 7, 8}
	for i, w := range want {
		if st.Arrays["l"].Data[i] != w {
			t.Fatalf("l = %v", st.Arrays["l"].Data)
		}
	}
}

func TestGridCheaperThanRouter(t *testing.T) {
	// The §2.2 cost relation: a grid shift of an array costs less than
	// pushing the same elements through the router.
	st, _ := storeFor(t, "program t\nreal a(4096), b(4096)\na = 0\nb = 0\nend program t")
	grid := newComm(st)
	shiftMove := nir.Move{Over: shape.Of(4096), Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src: nir.FcnCall{Name: "cm_cshift", Args: []nir.Value{
			nir.AVar{Name: "a", Field: nir.Everywhere{}}, nir.IntConst(1), nir.IntConst(1)}},
		Tgt: nir.AVar{Name: "b", Field: nir.Everywhere{}},
	}}}
	if err := grid.ExecMove(shiftMove); err != nil {
		t.Fatal(err)
	}
	router := newComm(st)
	full := nir.Section{Subs: []nir.Triplet{{Full: true}}}
	routerMove := nir.Move{Over: shape.Of(4096), Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src:  nir.AVar{Name: "a", Field: full},
		Tgt:  nir.AVar{Name: "b", Field: full},
	}}}
	if err := router.ExecMove(routerMove); err != nil {
		t.Fatal(err)
	}
	if grid.Cycles >= router.Cycles {
		t.Fatalf("grid %v !< router %v", grid.Cycles, router.Cycles)
	}
}

// Property: shift cost grows with |shift| distance and is always positive.
func TestShiftCostMonotoneProperty(t *testing.T) {
	st, _ := storeFor(t, "program t\nreal a(1024), b(1024)\na = 0\nb = 0\nend program t")
	cost := func(amt int) float64 {
		c := newComm(st)
		mv := nir.Move{Over: shape.Of(1024), Moves: []nir.GuardedMove{{
			Mask: nir.True,
			Src: nir.FcnCall{Name: "cm_cshift", Args: []nir.Value{
				nir.AVar{Name: "a", Field: nir.Everywhere{}}, nir.IntConst(int64(amt)), nir.IntConst(1)}},
			Tgt: nir.AVar{Name: "b", Field: nir.Everywhere{}},
		}}}
		if err := c.ExecMove(mv); err != nil {
			t.Fatal(err)
		}
		return c.Cycles
	}
	f := func(k uint8) bool {
		a := int(k%7) + 1
		return cost(a) > 0 && cost(a) <= cost(a+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatValMatchesInterpreterStyle(t *testing.T) {
	if FormatVal(nir.Integer32, 42) != "42" {
		t.Error("int format")
	}
	if FormatVal(nir.Logical32, 1) != "T" || FormatVal(nir.Logical32, 0) != "F" {
		t.Error("logical format")
	}
	if FormatVal(nir.Float64, 1.5) != "1.5" {
		t.Error("real format")
	}
	if FormatVal(nir.Float32, 0.25) != "0.25" {
		t.Error("f32 format")
	}
	_ = math.Pi
}

func TestCommEoshiftBoundary(t *testing.T) {
	st, _ := storeFor(t, "program t\ninteger a(4), b(4)\na = 0\nb = 0\nend program t")
	for i := 0; i < 4; i++ {
		st.Arrays["a"].Data[i] = float64(i + 1)
	}
	c := newComm(st)
	mv := nir.Move{Over: shape.Of(4), Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src: nir.FcnCall{Name: "cm_eoshift", Args: []nir.Value{
			nir.AVar{Name: "a", Field: nir.Everywhere{}}, nir.IntConst(1),
			nir.IntConst(-9), nir.IntConst(1)}},
		Tgt: nir.AVar{Name: "b", Field: nir.Everywhere{}},
	}}}
	if err := c.ExecMove(mv); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 4, -9}
	for i, w := range want {
		if st.Arrays["b"].Data[i] != w {
			t.Fatalf("b = %v", st.Arrays["b"].Data)
		}
	}
}

func TestCommTransposeAndDot(t *testing.T) {
	st, _ := storeFor(t, `program t
integer, array(2,3) :: a
integer, array(3,2) :: b
integer v(3), w(3)
integer d
d = 0
v = 0
w = 0
a = 0
b = 0
end program t`)
	for i := 0; i < 6; i++ {
		st.Arrays["a"].Data[i] = float64(i + 1)
	}
	c := newComm(st)
	tr := nir.Move{Over: shape.Of(3, 2), Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src:  nir.FcnCall{Name: "cm_transpose", Args: []nir.Value{nir.AVar{Name: "a", Field: nir.Everywhere{}}}},
		Tgt:  nir.AVar{Name: "b", Field: nir.Everywhere{}},
	}}}
	if err := c.ExecMove(tr); err != nil {
		t.Fatal(err)
	}
	// a (2x3 col-major) = [[1,3,5],[2,4,6]]; b = a^T.
	want := []float64{1, 3, 5, 2, 4, 6}
	for i, w := range want {
		if st.Arrays["b"].Data[i] != w {
			t.Fatalf("b = %v", st.Arrays["b"].Data)
		}
	}

	for i := 0; i < 3; i++ {
		st.Arrays["v"].Data[i] = float64(i + 1)
		st.Arrays["w"].Data[i] = float64(i + 2)
	}
	dot := nir.Move{Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src: nir.FcnCall{Name: "cm_dot", Args: []nir.Value{
			nir.AVar{Name: "v", Field: nir.Everywhere{}},
			nir.AVar{Name: "w", Field: nir.Everywhere{}}}},
		Tgt: nir.SVar{Name: "d"},
	}}}
	if err := c.ExecMove(dot); err != nil {
		t.Fatal(err)
	}
	if st.Scalars["d"] != 1*2+2*3+3*4 {
		t.Fatalf("d = %v", st.Scalars["d"])
	}
}

func TestCommSpreadVector(t *testing.T) {
	st, _ := storeFor(t, `program t
integer v(3)
integer, array(2,3) :: a
v = 0
a = 0
end program t`)
	for i := 0; i < 3; i++ {
		st.Arrays["v"].Data[i] = float64(i + 1)
	}
	c := newComm(st)
	mv := nir.Move{Over: shape.Of(2, 3), Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src: nir.FcnCall{Name: "cm_spread", Args: []nir.Value{
			nir.AVar{Name: "v", Field: nir.Everywhere{}}, nir.IntConst(1), nir.IntConst(2)}},
		Tgt: nir.AVar{Name: "a", Field: nir.Everywhere{}},
	}}}
	if err := c.ExecMove(mv); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2, 2, 3, 3}
	for i, w := range want {
		if st.Arrays["a"].Data[i] != w {
			t.Fatalf("a = %v", st.Arrays["a"].Data)
		}
	}
}

func TestLogicalReductions(t *testing.T) {
	st, _ := storeFor(t, "program t\nlogical m(4)\ninteger n\nlogical p\nn = 0\np = .false.\nm = .false.\nend program t")
	st.Arrays["m"].Data = []float64{1, 0, 1, 1}
	c := newComm(st)
	run := func(fn, tgt string) {
		mv := nir.Move{Moves: []nir.GuardedMove{{
			Mask: nir.True,
			Src:  nir.FcnCall{Name: fn, Args: []nir.Value{nir.AVar{Name: "m", Field: nir.Everywhere{}}}},
			Tgt:  nir.SVar{Name: tgt},
		}}}
		if err := c.ExecMove(mv); err != nil {
			t.Fatal(err)
		}
	}
	run("cm_reduce_count", "n")
	if st.Scalars["n"] != 3 {
		t.Fatalf("count = %v", st.Scalars["n"])
	}
	run("cm_reduce_any", "p")
	if st.Scalars["p"] != 1 {
		t.Fatalf("any = %v", st.Scalars["p"])
	}
	run("cm_reduce_all", "p")
	if st.Scalars["p"] != 0 {
		t.Fatalf("all = %v", st.Scalars["p"])
	}
}

func TestGeneralMoveScatterSubscript(t *testing.T) {
	// FORALL-style reversal: a(i) = b(9-i) via subscripted refs.
	st, _ := storeFor(t, "program t\ninteger a(8), b(8)\na = 0\nb = 0\nend program t")
	for i := 0; i < 8; i++ {
		st.Arrays["b"].Data[i] = float64(i + 1)
	}
	c := newComm(st)
	S := shape.Of(8)
	coord := nir.LocalUnder{S: S, Dim: 1}
	mv := nir.Move{Over: S, Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src: nir.AVar{Name: "b", Field: nir.Subscript{Subs: []nir.Value{
			nir.Binary{Op: nir.Minus, L: nir.IntConst(9), R: coord}}}},
		Tgt: nir.AVar{Name: "a", Field: nir.Subscript{Subs: []nir.Value{coord}}},
	}}}
	if err := c.ExecMove(mv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if st.Arrays["a"].Data[i] != float64(8-i) {
			t.Fatalf("a = %v", st.Arrays["a"].Data)
		}
	}
}

func TestGeneralMoveMasked(t *testing.T) {
	st, _ := storeFor(t, "program t\ninteger a(6), b(6)\na = 0\nb = 0\nend program t")
	for i := 0; i < 6; i++ {
		st.Arrays["b"].Data[i] = float64(10 * (i + 1))
		st.Arrays["a"].Data[i] = -1
	}
	c := newComm(st)
	S := shape.Of(6)
	coord := nir.LocalUnder{S: S, Dim: 1}
	mv := nir.Move{Over: S, Moves: []nir.GuardedMove{{
		Mask: nir.Binary{Op: nir.Equals,
			L: nir.Binary{Op: nir.Mod, L: coord, R: nir.IntConst(2)}, R: nir.IntConst(0)},
		Src: nir.AVar{Name: "b", Field: nir.Subscript{Subs: []nir.Value{nir.Binary{Op: nir.Minus, L: nir.IntConst(7), R: coord}}}},
		Tgt: nir.AVar{Name: "a", Field: nir.Subscript{Subs: []nir.Value{coord}}},
	}}}
	if err := c.ExecMove(mv); err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 50, -1, 30, -1, 10}
	for i, w := range want {
		if st.Arrays["a"].Data[i] != w {
			t.Fatalf("a = %v", st.Arrays["a"].Data)
		}
	}
}

func TestUnaryEvalFunctions(t *testing.T) {
	st := &Store{Arrays: map[string]*Array{}, Scalars: map[string]float64{}, Kinds: map[string]nir.ScalarKind{}}
	ctx := &EvalCtx{Store: st}
	cases := []struct {
		op   nir.UnOp
		x    float64
		want float64
	}{
		{nir.Sqrt, 9, 3},
		{nir.Abs, -4, 4},
		{nir.Exp, 0, 1},
		{nir.Log, 1, 0},
		{nir.Sin, 0, 0},
		{nir.Cos, 0, 1},
		{nir.Tan, 0, 0},
		{nir.ToInteger32, 3.7, 3},
	}
	for _, cse := range cases {
		got, _, err := Eval(nir.Unary{Op: cse.op, X: nir.FloatConst(cse.x)}, ctx)
		if err != nil || math.Abs(got-cse.want) > 1e-15 {
			t.Errorf("%v(%v) = %v (%v)", cse.op, cse.x, got, err)
		}
	}
}

// Coord returns the declared-space coordinate along dim (1-based) of the
// element at storage offset off.
func (a *Array) Coord(off, dim int) int {
	stride := 1
	for d := 0; d < dim-1; d++ {
		stride *= a.Ext[d]
	}
	return a.Lo[dim-1] + (off/stride)%a.Ext[dim-1]
}
