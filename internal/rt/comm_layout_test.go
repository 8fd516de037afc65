package rt

import (
	"math"
	"testing"

	"f90y/internal/nir"
	"f90y/internal/shape"
)

// shiftMove builds a cm_cshift move b = cshift(a, shift, dim).
func shiftMove(shift, dim int) nir.Move {
	return nir.Move{Over: shape.Of(1), Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src: nir.FcnCall{Name: "cm_cshift", Args: []nir.Value{
			nir.AVar{Name: "a", Field: nir.Everywhere{}},
			nir.IntConst(int64(shift)), nir.IntConst(int64(dim))}},
		Tgt: nir.AVar{Name: "b", Field: nir.Everywhere{}},
	}}}
}

// vecStore builds a store with two rank-1 arrays a, b of extent n and the
// given distributions.
func vecStore(n int, da, db shape.Distribution) *Store {
	a := NewArray(nir.Float64, shape.Of(n))
	b := NewArray(nir.Float64, shape.Of(n))
	a.Dist, b.Dist = da, db
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	return &Store{
		Arrays:  map[string]*Array{"a": a, "b": b},
		Scalars: map[string]float64{},
		Kinds:   map[string]nir.ScalarKind{"a": nir.Float64, "b": nir.Float64},
	}
}

var cyclic = shape.Distribution{Dims: []shape.DimDist{{Kind: shape.DistCyclic}}}

// TestShiftDefaultLayoutIsAllBlock: an array without a directive is an
// all-BLOCK array. A short shift rides the NEWS grid at the grid
// formula, and writing BLOCK out changes nothing.
func TestShiftDefaultLayoutIsAllBlock(t *testing.T) {
	st := vecStore(128, shape.Distribution{}, shape.Distribution{})
	c := newComm(st)
	if err := c.ExecMove(shiftMove(3, 1)); err != nil {
		t.Fatal(err)
	}
	// 2 elements a PE, half of them cross a face per unit shift:
	// 150 + 2*3.5 + 2*(1/2)*70*3.
	if want := 367.0; c.Cycles != want || c.ClassCycles[CommGrid] != want {
		t.Fatalf("default shift: %v cycles %v, want %v on the grid", c.Cycles, c.ClassCycles, want)
	}
	block := shape.Distribution{Dims: []shape.DimDist{{Kind: shape.DistBlock}}}
	cb := newComm(vecStore(128, block, block))
	if err := cb.ExecMove(shiftMove(3, 1)); err != nil {
		t.Fatal(err)
	}
	if cb.Cycles != c.Cycles {
		t.Fatalf("explicit BLOCK shift %v cycles, default %v", cb.Cycles, c.Cycles)
	}
}

// TestShiftCyclicAlignedFree pins the distribution plane's headline
// property: between identically CYCLIC-distributed arrays, a shift by a
// multiple of chunk*PEs is a pure relabeling — no wire traffic at all —
// while the same shift under BLOCK pays per-hop wire charges.
func TestShiftCyclicAlignedFree(t *testing.T) {
	// 128 elements over 64 PEs cyclic: pd=64, chunk=1, so shift 64 is free.
	st := vecStore(128, cyclic, cyclic)
	c := newComm(st)
	if err := c.ExecMove(shiftMove(64, 1)); err != nil {
		t.Fatal(err)
	}
	l := shape.Distribute(shape.Of(128), c.PEs, cyclic)
	sub := float64(l.SubgridSize())
	want := c.Cost.GridStartup + float64(sub*c.Cost.GridLocal) // zero wire term
	if c.Cycles != want {
		t.Fatalf("free cyclic shift: %v cycles, want %v", c.Cycles, want)
	}
	if c.ClassCycles[CommGrid] != want {
		t.Fatalf("free cyclic shift must be grid class: %v", c.ClassCycles)
	}

	// The identical shift under the default BLOCK layout pays 64 hops of
	// wire traffic (or the router, whichever the model picks) — far more.
	stB := vecStore(128, shape.Distribution{}, shape.Distribution{})
	cb := newComm(stB)
	if err := cb.ExecMove(shiftMove(64, 1)); err != nil {
		t.Fatal(err)
	}
	if cb.Cycles <= c.Cycles {
		t.Fatalf("BLOCK shift-64 (%v) must cost more than CYCLIC (%v)", cb.Cycles, c.Cycles)
	}
}

// TestShiftWildcardAdoptsExplicit checks the wildcard rule: a
// default-layout partner adopts the explicit side's distribution (the
// compiler materializes temporaries in the consumer's layout), so
// explicit-vs-default is priced like explicit-vs-explicit, not as a
// realignment.
func TestShiftWildcardAdoptsExplicit(t *testing.T) {
	exp := vecStore(128, cyclic, cyclic)
	ce := newComm(exp)
	if err := ce.ExecMove(shiftMove(64, 1)); err != nil {
		t.Fatal(err)
	}
	wild := vecStore(128, cyclic, shape.Distribution{})
	cw := newComm(wild)
	if err := cw.ExecMove(shiftMove(64, 1)); err != nil {
		t.Fatal(err)
	}
	if cw.Cycles != ce.Cycles {
		t.Fatalf("wildcard pair %v cycles, explicit pair %v — must match", cw.Cycles, ce.Cycles)
	}
}

// TestShiftCrossDistributionRouts checks that a shift between two
// different explicit distributions is priced as a general-router
// realignment.
func TestShiftCrossDistributionRouts(t *testing.T) {
	cyc4 := shape.Distribution{Dims: []shape.DimDist{{Kind: shape.DistCyclic, K: 4}}}
	st := vecStore(128, cyclic, cyc4)
	c := newComm(st)
	if err := c.ExecMove(shiftMove(1, 1)); err != nil {
		t.Fatal(err)
	}
	l := shape.Distribute(shape.Of(128), c.PEs, cyclic)
	want := c.Cost.RouterStartup + float64(float64(l.SubgridSize())*c.Cost.RouterPerElem)
	if c.ClassCycles[CommRouter] != want || c.ClassCycles[CommGrid] != 0 {
		t.Fatalf("cross-distribution shift must be a router realignment of %v: %v", want, c.ClassCycles)
	}
	// The data still arrives correctly.
	if st.Arrays["b"].Data[0] != 1 || st.Arrays["b"].Data[127] != 0 {
		t.Fatalf("shift result wrong: %v...", st.Arrays["b"].Data[:4])
	}
}

// matStore builds an n-by-n pair a, b with the given distributions.
func matStore(n int, da, db shape.Distribution) *Store {
	a := NewArray(nir.Float64, shape.Of(n, n))
	b := NewArray(nir.Float64, shape.Of(n, n))
	a.Dist, b.Dist = da, db
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	return &Store{
		Arrays:  map[string]*Array{"a": a, "b": b},
		Scalars: map[string]float64{},
		Kinds:   map[string]nir.ScalarKind{"a": nir.Float64, "b": nir.Float64},
	}
}

func transposeMove() nir.Move {
	return nir.Move{Over: shape.Of(1), Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src:  nir.FcnCall{Name: "cm_transpose", Args: []nir.Value{nir.AVar{Name: "a", Field: nir.Everywhere{}}}},
		Tgt:  nir.AVar{Name: "b", Field: nir.Everywhere{}},
	}}}
}

// TestTransposeLayoutClasses pins the transpose cost matrix: a square
// all-BLOCK transpose keeps its diagonal blocks home and routes the
// rest; a (BLOCK,*) source into a (*,BLOCK) target is fully PE-local
// and moves on the grid.
func TestTransposeLayoutClasses(t *testing.T) {
	// Default: 16x16 over an 8x8 PE grid of 2x2 blocks. The 8 diagonal
	// blocks stay on their PE, the other 224 elements change owner:
	// 400 + 224/64*60 + 32/64*3.5.
	st := matStore(16, shape.Distribution{}, shape.Distribution{})
	c := newComm(st)
	if err := c.ExecMove(transposeMove()); err != nil {
		t.Fatal(err)
	}
	if want := 611.75; c.ClassCycles[CommRouter] != want || c.Cycles != want {
		t.Fatalf("default transpose: %v, counted owners give %v on the router", c.ClassCycles, want)
	}

	// (BLOCK,*) -> (*,BLOCK): every element's target PE is its source PE.
	rowD := shape.Distribution{Dims: []shape.DimDist{{Kind: shape.DistBlock}, {Kind: shape.DistStar}}}
	colD := shape.Distribution{Dims: []shape.DimDist{{Kind: shape.DistStar}, {Kind: shape.DistBlock}}}
	st2 := matStore(16, rowD, colD)
	c2 := newComm(st2)
	if err := c2.ExecMove(transposeMove()); err != nil {
		t.Fatal(err)
	}
	if c2.ClassCycles[CommRouter] != 0 || c2.ClassCycles[CommGrid] <= 0 {
		t.Fatalf("aligned transpose must be pure grid: %v", c2.ClassCycles)
	}
	if c2.Cycles >= c.Cycles {
		t.Fatalf("aligned transpose (%v) must beat default router transpose (%v)", c2.Cycles, c.Cycles)
	}
	// Functional result matches on both paths.
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			want := st2.Arrays["a"].Data[j+i*16]
			if got := st2.Arrays["b"].Data[i+j*16]; got != want {
				t.Fatalf("b(%d,%d) = %v, want %v", i+1, j+1, got, want)
			}
		}
	}
}

// gatherMove builds b = gather(a, idx).
func gatherMove() nir.Move {
	return nir.Move{Over: shape.Of(1), Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src: nir.FcnCall{Name: "cm_gather", Args: []nir.Value{
			nir.AVar{Name: "a", Field: nir.Everywhere{}},
			nir.AVar{Name: "idx", Field: nir.Everywhere{}}}},
		Tgt: nir.AVar{Name: "b", Field: nir.Everywhere{}},
	}}}
}

func gatherStore(n int, da shape.Distribution, index func(i int) int) *Store {
	st := vecStore(n, da, shape.Distribution{})
	idx := NewArray(nir.Integer32, shape.Of(n))
	for i := range idx.Data {
		idx.Data[i] = float64(index(i))
	}
	st.Arrays["idx"] = idx
	st.Kinds["idx"] = nir.Integer32
	return st
}

// TestGatherLayoutCosts checks the gather cost model: an identity gather
// under matched layouts is all-local (grid class); a neighbor gather
// under element-CYCLIC crosses a PE boundary for every element and pays
// the router for all of them, costing strictly more than the same gather
// under BLOCK where only block edges cross.
func TestGatherLayoutCosts(t *testing.T) {
	identity := func(i int) int { return i + 1 }
	st := gatherStore(128, shape.Distribution{}, identity)
	c := newComm(st)
	if err := c.ExecMove(gatherMove()); err != nil {
		t.Fatal(err)
	}
	if c.ClassCycles[CommRouter] != 0 || c.ClassCycles[CommGrid] <= 0 {
		t.Fatalf("identity gather must be pure grid: %v", c.ClassCycles)
	}
	for i, v := range st.Arrays["b"].Data {
		if v != float64(i) {
			t.Fatalf("identity gather b[%d] = %v", i, v)
		}
	}

	neighbor := func(i int) int { return (i+1)%128 + 1 }
	stB := gatherStore(128, shape.Distribution{}, neighbor)
	cb := newComm(stB)
	if err := cb.ExecMove(gatherMove()); err != nil {
		t.Fatal(err)
	}
	stC := gatherStore(128, cyclic, neighbor)
	cc := newComm(stC)
	if err := cc.ExecMove(gatherMove()); err != nil {
		t.Fatal(err)
	}
	if cb.ClassCycles[CommRouter] <= 0 || cc.ClassCycles[CommRouter] <= 0 {
		t.Fatalf("neighbor gathers must route: block %v, cyclic %v", cb.ClassCycles, cc.ClassCycles)
	}
	if cc.Cycles <= cb.Cycles {
		t.Fatalf("cyclic neighbor gather (%v) must cost more than block (%v)", cc.Cycles, cb.Cycles)
	}
}

// TestCommLineCyclesSumInvariant runs a mix of operations and checks the
// per-line attribution: every cell is keyed under the CommRoutine
// pseudo-routine with a known class, and the values sum exactly to the
// cycle total.
func TestCommLineCyclesSumInvariant(t *testing.T) {
	st := gatherStore(64, cyclic, func(i int) int { return (i+3)%64 + 1 })
	c := newComm(st)
	if err := c.ExecMove(shiftMove(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.ExecMove(gatherMove()); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for ref, v := range c.LineCycles {
		if ref.Routine != CommRoutine {
			t.Fatalf("line ref %v not under %q", ref, CommRoutine)
		}
		switch ref.Class {
		case CommGrid, CommRouter, CommReduce:
		default:
			t.Fatalf("line ref %v has unknown class", ref)
		}
		sum += v
	}
	if math.Abs(sum-c.Cycles) > 1e-9 {
		t.Fatalf("LineCycles sum %v, Cycles %v", sum, c.Cycles)
	}
}
