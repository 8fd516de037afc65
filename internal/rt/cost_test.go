package rt

import (
	"math/rand"
	"testing"

	"f90y/internal/nir"
	"f90y/internal/shape"
)

// TestCommCostTable checks each of CommCost's formulas against a value
// worked by hand from DefaultCommCost. It needs no Store: a transfer's
// price is a function of layouts.
func TestCommCostTable(t *testing.T) {
	k := DefaultCommCost
	block := shape.Blockwise(shape.Of(128), 64)        // 2 elements a PE
	cyc := shape.Distribute(shape.Of(128), 64, cyclic) // 2 elements a PE, dealt singly
	onePE := shape.Blockwise(shape.Of(128), 1)         // the whole vector on one PE
	small := shape.Blockwise(shape.Of(16), 64)         // 16 of the 64 PEs populated
	class := func(c string, v float64) [2]any { return [2]any{c, v} }
	shift := func(l shape.Layout, s int) [2]any { return class(k.Shift(l, 0, s)) }
	routed := func(off, local int, l shape.Layout) [2]any { return class(k.Routed(off, local, l)) }
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"router pass of 32", k.RouterPass(32), 400 + 32*60.0},
		// 150 + 2*3.5 local, half the elements cross a face per unit shift.
		{"block shift 3", shift(block, 3), class(CommGrid, 157+2*0.5*70*3)},
		{"block shift -3", shift(block, -3), class(CommGrid, 367.0)},
		// Six hops of wire (577) cost more than routing the subgrid (520).
		{"block shift 6", shift(block, 6), class(CommRouter, 400+2*60.0)},
		{"cyclic shift by the PE count", shift(cyc, 64), class(CommGrid, 157.0)},
		{"cyclic unit shift", shift(cyc, 1), class(CommGrid, 157+2*70.0)},
		{"cyclic shift 3", shift(cyc, 3), class(CommRouter, 520.0)},
		{"one-PE shift", shift(onePE, 40), class(CommGrid, 150+128*3.5)},
		{"local permutation", routed(0, 128, block), class(CommGrid, 150+2*3.5)},
		{"half off-PE", routed(64, 64, block), class(CommRouter, 400+60+3.5)},
		{"over the PEs populated", routed(16, 0, small), class(CommRouter, 400+60.0)},
		// Each ends with the log2(64) = 6 level tree at 25 a level.
		{"reduce", k.Reduce(block), 150 + 2*2 + 150.0},
		{"spread", k.Spread(block), 150 + 2*3.5 + 150.0},
		{"dot", k.Dot(block), 150 + 2*(3.5+2) + 150.0},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

// randomDist draws a distribution of the given rank; one in four is the
// default (no directive at all).
func randomDist(rng *rand.Rand, rank int) shape.Distribution {
	if rng.Intn(4) == 0 {
		return shape.Distribution{}
	}
	d := shape.Distribution{Dims: make([]shape.DimDist, rank)}
	for i := range d.Dims {
		d.Dims[i] = shape.DimDist{Kind: shape.DistKind(rng.Intn(3)), K: rng.Intn(5)}
	}
	return d
}

// TestOneCostPathProperties holds the single model over random extents,
// PE counts, distributions (the default included) and shifts: staying on
// the grid never costs a shift more than leaving it for the router; the
// class cycles sum exactly to Cycles; and a transpose between two
// directive-free arrays is charged Routed of its counted owner changes,
// like any other pair.
func TestOneCostPathProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	// run prices one move between a and b on a fresh Comm.
	run := func(pes int, ea, eb []int, da, db shape.Distribution, mv nir.Move) *Comm {
		a, b := NewArray(nir.Float64, shape.Of(ea...)), NewArray(nir.Float64, shape.Of(eb...))
		a.Dist, b.Dist = da, db
		c := &Comm{PEs: pes, Cost: DefaultCommCost,
			Store: &Store{Arrays: map[string]*Array{"a": a, "b": b}, Scalars: map[string]float64{}}}
		if err := c.ExecMove(mv); err != nil {
			t.Fatal(err)
		}
		if sum := c.ClassCycles[CommGrid] + c.ClassCycles[CommRouter] + c.ClassCycles[CommReduce]; sum != c.Cycles || sum <= 0 {
			t.Fatalf("class cycles %v sum to %v, Cycles is %v", c.ClassCycles, sum, c.Cycles)
		}
		return c
	}
	for trial := 0; trial < 500; trial++ {
		pes := 1 << rng.Intn(8)
		rank := 1 + rng.Intn(2)
		ext := make([]int, rank)
		for i := range ext {
			ext[i] = 1 + rng.Intn(40)
		}
		da, db := randomDist(rng, rank), randomDist(rng, rank)
		dim, s := 1+rng.Intn(rank), rng.Intn(200)-100
		c := run(pes, ext, ext, da, db, shiftMove(s, dim))
		sd, _ := effectivePair(c.Store.Arrays["a"], c.Store.Arrays["b"])
		pass := c.Cost.RouterPass(shape.Distribute(shape.Of(ext...), pes, sd).SubgridSize())
		if c.Cycles > pass {
			t.Fatalf("ext=%v pes=%d %q->%q shift %d dim %d: %v cycles, a router pass is %v",
				ext, pes, da, db, s, dim, c.Cycles, pass)
		}

		r, cl := 1+rng.Intn(24), 1+rng.Intn(24)
		c = run(pes, []int{r, cl}, []int{cl, r}, shape.Distribution{}, shape.Distribution{}, transposeMove())
		ls, lo := shape.Blockwise(shape.Of(r, cl), pes), shape.Blockwise(shape.Of(cl, r), pes)
		off := 0
		for j := 0; j < cl; j++ {
			for i := 0; i < r; i++ {
				if ls.Owner(i, j) != lo.Owner(j, i) {
					off++
				}
			}
		}
		if class, want := c.Cost.Routed(off, r*cl-off, lo); c.ClassCycles[class] != want || c.Cycles != want {
			t.Fatalf("%dx%d default transpose over %d PEs: %v, Routed(%d, %d) is %v %s",
				r, cl, pes, c.ClassCycles, off, r*cl-off, want, class)
		}
	}
}
