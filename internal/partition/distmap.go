package partition

// This file maps explicit data distributions onto machine subgrids
// (§5.3.1 retarget): given a shape.Layout carrying an !HPF$ distribution,
// it computes exact per-PE ownership counts. The machine models charge
// node compute for the worst-loaded PE — the synchronous machine gates on
// its slowest processor — so the quantity of interest is the maximum
// number of points any single PE owns.

import "f90y/internal/shape"

// DimCounts returns how many index points each PE coordinate along
// layout dimension d owns (length PEDims[d]; entries sum to Extents[d]).
func DimCounts(lo shape.Layout, d int) []int {
	counts, own := make([]int, lo.PEDims[d]), lo.DimOwner(d)
	for i := 0; i < lo.Extents[d]; i++ {
		counts[own.Of(i)]++
	}
	return counts
}

// MaxPointsPerPE is the exact worst-case number of points a single PE
// owns under the layout. Ownership is separable per dimension (a PE's
// point set is the cartesian product of its per-dimension slices), so
// the maximum is the product of the per-dimension maxima.
func MaxPointsPerPE(lo shape.Layout) int {
	m := 1
	for d := range lo.Extents {
		best := 0
		for _, c := range DimCounts(lo, d) {
			if c > best {
				best = c
			}
		}
		m *= best
	}
	return m
}

// NodeSubgridSize is the per-PE (or per-node) subgrid extent the machine
// models charge compute for: MaxPointsPerPE. For an all-BLOCK layout
// that is the nominal Block product, so the gate is a shortcut past the
// counting, not a second model (TestNodeSubgridSizeDefaultGate).
func NodeSubgridSize(lo shape.Layout) int {
	if lo.Dist.IsDefault() {
		return lo.SubgridSize()
	}
	return MaxPointsPerPE(lo)
}
