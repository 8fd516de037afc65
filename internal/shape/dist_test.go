package shape

import (
	"math/rand"
	"reflect"
	"testing"
)

// legacyBlockwise is a verbatim copy of the pre-distribution-plane
// Blockwise algorithm. The default distribution must reproduce it bit
// for bit on every non-degenerate input.
func legacyBlockwise(s Shape, pes int) Layout {
	ext := Extents(s)
	if len(ext) == 0 {
		ext = []int{1}
	}
	pd := make([]int, len(ext))
	for i := range pd {
		pd[i] = 1
	}
	remaining := pes
	for remaining > 1 {
		best, bestBlock := -1, 0
		for i := range ext {
			b := ceilDiv(ext[i], pd[i])
			if b > bestBlock && b > 1 {
				best, bestBlock = i, b
			}
		}
		if best < 0 {
			break
		}
		pd[best] *= 2
		remaining /= 2
	}
	block := make([]int, len(ext))
	for i := range ext {
		block[i] = ceilDiv(ext[i], pd[i])
	}
	return Layout{Extents: ext, PEDims: pd, Block: block, PEs: pes}
}

func TestDistributeDefaultMatchesLegacyBlockwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		rank := 1 + rng.Intn(3)
		ext := make([]int, rank)
		for i := range ext {
			ext[i] = 1 + rng.Intn(600)
		}
		pes := 1 << rng.Intn(13)
		want := legacyBlockwise(Of(ext...), pes)
		for _, d := range []Distribution{{}, {Dims: make([]DimDist, rank)}} {
			got := Distribute(Of(ext...), pes, d)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Distribute(%v, %d, %v) = %+v, legacy = %+v", ext, pes, d, got, want)
			}
		}
		// Blockwise itself must still be the legacy layout.
		if got := Blockwise(Of(ext...), pes); !reflect.DeepEqual(got, want) {
			t.Fatalf("Blockwise(%v, %d) = %+v, legacy = %+v", ext, pes, got, want)
		}
	}
}

// TestDistributePEDimsArePowersOfTwo: Distribute only ever doubles a
// dimension's PE count, so every PEDims entry is a power of two — for PE
// counts that are not powers of two too. DimOwner's CYCLIC owner is a
// mask on that fact.
func TestDistributePEDimsArePowersOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	kinds := []DimDist{{Kind: DistBlock}, {Kind: DistCyclic}, {Kind: DistCyclic, K: 3}, {Kind: DistStar}}
	for trial := 0; trial < 2000; trial++ {
		rank := 1 + rng.Intn(3)
		ext := make([]int, rank)
		d := Distribution{Dims: make([]DimDist, rank)}
		for i := range ext {
			ext[i] = 1 + rng.Intn(100)
			d.Dims[i] = kinds[rng.Intn(len(kinds))]
		}
		pes := 1 + rng.Intn(3000)
		l := Distribute(Of(ext...), pes, d)
		used := 1
		for _, pd := range l.PEDims {
			if pd < 1 || pd&(pd-1) != 0 {
				t.Fatalf("Distribute(%v, %d, %v).PEDims = %v: %d is not a power of two", ext, pes, d, l.PEDims, pd)
			}
			used *= pd
		}
		if used > pes {
			t.Fatalf("Distribute(%v, %d, %v).PEDims = %v spans more than the machine", ext, pes, d, l.PEDims)
		}
	}
}

func TestBlockwiseDegenerateInputs(t *testing.T) {
	cases := []struct {
		name    string
		ext     []int
		pes     int
		wantExt []int
		wantPEs int
	}{
		{"zero pes", []int{8}, 0, []int{8}, 1},
		{"negative pes", []int{8}, -4, []int{8}, 1},
		{"zero extent", []int{0, 8}, 4, []int{1, 8}, 4},
		{"negative extent", []int{-3}, 2, []int{1}, 2},
		{"rank zero", nil, 16, []int{1}, 16},
		{"all degenerate", []int{0, -1}, -1, []int{1, 1}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := Blockwise(Of(c.ext...), c.pes)
			if !reflect.DeepEqual(l.Extents, c.wantExt) {
				t.Errorf("Extents = %v, want %v", l.Extents, c.wantExt)
			}
			if l.PEs != c.wantPEs {
				t.Errorf("PEs = %d, want %d", l.PEs, c.wantPEs)
			}
			if l.SubgridSize() < 1 {
				t.Errorf("SubgridSize = %d, want >= 1", l.SubgridSize())
			}
			if l.PEsUsed() < 1 {
				t.Errorf("PEsUsed = %d, want >= 1", l.PEsUsed())
			}
			for d := range l.Extents {
				if f, _ := l.ShiftCost(d, 1); f < 0 || f > 1 {
					t.Errorf("ShiftCost(%d, 1) sends %v of the elements off-PE, want in [0,1]", d, f)
				}
			}
		})
	}
}

func TestParseDist(t *testing.T) {
	cases := []struct {
		spec string
		want Distribution
		err  bool
	}{
		{"block", Distribution{Dims: []DimDist{{Kind: DistBlock}}}, false},
		{"BLOCK, Cyclic", Distribution{Dims: []DimDist{{Kind: DistBlock}, {Kind: DistCyclic}}}, false},
		{"cyclic(4),*", Distribution{Dims: []DimDist{{Kind: DistCyclic, K: 4}, {Kind: DistStar}}}, false},
		{"cyclic( 2 )", Distribution{Dims: []DimDist{{Kind: DistCyclic, K: 2}}}, false},
		{"cyclic(0)", Distribution{}, true},
		{"cyclic(x)", Distribution{}, true},
		{"banana", Distribution{}, true},
		{"", Distribution{}, true},
	}
	for _, c := range cases {
		got, err := ParseDist(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("ParseDist(%q): want error, got %+v", c.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDist(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseDist(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestDistributionEqualAndDefault(t *testing.T) {
	blk := Distribution{Dims: []DimDist{{Kind: DistBlock}, {Kind: DistBlock}}}
	cyc := Distribution{Dims: []DimDist{{Kind: DistCyclic}, {Kind: DistBlock}}}
	cyc1 := Distribution{Dims: []DimDist{{Kind: DistCyclic, K: 1}, {Kind: DistBlock}}}
	if !blk.IsDefault() || !(Distribution{}).IsDefault() {
		t.Errorf("all-BLOCK and zero distributions must be default")
	}
	if cyc.IsDefault() {
		t.Errorf("cyclic distribution must not be default")
	}
	if !blk.Equal(Distribution{}, 2) {
		t.Errorf("explicit all-BLOCK must equal the zero distribution")
	}
	if !cyc.Equal(cyc1, 2) {
		t.Errorf("cyclic and cyclic(1) must be equal")
	}
	if cyc.Equal(blk, 2) {
		t.Errorf("cyclic must not equal block")
	}
	if got := cyc.Reverse(2); got.Dim(1).Kind != DistCyclic || got.Dim(0).Kind != DistBlock {
		t.Errorf("Reverse = %+v", got)
	}
}

func TestDistributeCyclicAndStar(t *testing.T) {
	// 64 elements, cyclic over 8 PEs: every PE owns 8 elements dealt
	// round robin.
	cyc, _ := ParseDist("cyclic")
	l := Distribute(Of(64), 8, cyc)
	if l.PEDims[0] != 8 || l.Block[0] != 8 {
		t.Fatalf("cyclic layout = %+v", l)
	}
	if got := l.Owner(0); got != 0 {
		t.Errorf("Owner(0) = %d", got)
	}
	if got := l.Owner(9); got != 1 {
		t.Errorf("Owner(9) = %d, want 1", got)
	}
	if got := l.Owner(63); got != 7 {
		t.Errorf("Owner(63) = %d, want 7", got)
	}

	// Star dims are never split.
	star, _ := ParseDist("block,*")
	l2 := Distribute(Of(16, 16), 64, star)
	if l2.PEDims[1] != 1 || l2.Block[1] != 16 {
		t.Fatalf("star dim was split: %+v", l2)
	}
	if l2.PEDims[0] != 16 {
		t.Fatalf("block dim under-split: %+v", l2)
	}

	// Block-cyclic: chunks of 4 dealt over the dimension's PEs.
	bc, _ := ParseDist("cyclic(4)")
	l3 := Distribute(Of(32), 4, bc)
	if l3.PEDims[0] != 4 {
		t.Fatalf("cyclic(4) layout = %+v", l3)
	}
	if got := l3.Owner(3); got != 0 {
		t.Errorf("Owner(3) = %d, want 0", got)
	}
	if got := l3.Owner(4); got != 1 {
		t.Errorf("Owner(4) = %d, want 1", got)
	}
	if got := l3.Owner(16); got != 0 {
		t.Errorf("Owner(16) = %d, want 0 (wraps)", got)
	}
}

func TestShiftCost(t *testing.T) {
	// Default block: 8 elements a PE, one of them crosses per unit shift.
	l := Distribute(Of(64), 8, Distribution{})
	frac, hops := l.ShiftCost(0, 3)
	if frac != 1.0/8 || hops != 3 {
		t.Errorf("block ShiftCost = (%v, %v), want (1/8, 3)", frac, hops)
	}
	// Cyclic: unit shift moves everything one PE.
	cyc, _ := ParseDist("cyclic")
	lc := Distribute(Of(64), 8, cyc)
	frac, hops = lc.ShiftCost(0, 1)
	if frac != 1 || hops != 1 {
		t.Errorf("cyclic unit ShiftCost = (%v, %v), want (1, 1)", frac, hops)
	}
	// Cyclic shift by a multiple of chunk*PEs is free.
	frac, hops = lc.ShiftCost(0, 8)
	if frac != 0 || hops != 0 {
		t.Errorf("cyclic wrap ShiftCost = (%v, %v), want (0, 0)", frac, hops)
	}
	// Torus minimality: shifting pd-1 steps is one hop the other way.
	frac, hops = lc.ShiftCost(0, 7)
	if frac != 1 || hops != 1 {
		t.Errorf("cyclic torus ShiftCost = (%v, %v), want (1, 1)", frac, hops)
	}
	// Unsplit dims shift locally for free.
	star, _ := ParseDist("*")
	ls := Distribute(Of(64), 8, star)
	frac, hops = ls.ShiftCost(0, 5)
	if frac != 0 || hops != 0 {
		t.Errorf("star ShiftCost = (%v, %v), want (0, 0)", frac, hops)
	}
}
