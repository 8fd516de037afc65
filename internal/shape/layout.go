package shape

// Layout describes the blockwise assignment of a shape's points to a
// machine's processing elements, the policy the paper's prototype
// delegates to the CM runtime system (§3.3: "laid out blockwise to the CM
// processing elements"). Each PE owns a rectangular subgrid; all PEs'
// subgrids tile the shape exactly (edge PEs may own smaller blocks).
type Layout struct {
	Extents []int        // shape extents per dimension
	PEDims  []int        // PEs assigned along each dimension (product = PEs used)
	Block   []int        // nominal subgrid extent per dimension (ceil division)
	PEs     int          // total PEs in the machine
	Dist    Distribution // per-dim distribution; zero value = default blockwise
}

// Blockwise computes a block layout of s over a machine with pes
// processing elements. pes must be a power of two (hypercube machine).
// Factors of the PE count are assigned greedily to the dimension whose
// per-PE block is currently largest, mirroring the CM runtime's grid
// geometry heuristic.
//
// Degenerate inputs are clamped rather than rejected, so a layout is
// always usable: pes < 1 behaves as a single-PE machine, and zero or
// negative extents behave as extent 1 (a degenerate dimension still
// owns one point). A non-power-of-two PE count uses the largest power
// of two below it, matching the hypercube geometry.
func Blockwise(s Shape, pes int) Layout {
	return Distribute(s, pes, Distribution{})
}

// sanitizePEs clamps a degenerate machine size to one PE.
func sanitizePEs(pes int) int {
	if pes < 1 {
		return 1
	}
	return pes
}

// sanitizeExtents clamps degenerate extents to 1 (and a rank-0 shape to
// a single point) so every dimension owns at least one point. The
// returned slice is freshly allocated.
func sanitizeExtents(ext []int) []int {
	if len(ext) == 0 {
		return []int{1}
	}
	out := make([]int, len(ext))
	for i, e := range ext {
		out[i] = max(e, 1)
	}
	return out
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// PEsUsed is the number of PEs that own at least one point.
func (l Layout) PEsUsed() int {
	n := 1
	for i := range l.PEDims {
		n *= min(l.PEDims[i], ceilDiv(l.Extents[i], max(l.Block[i], 1)))
	}
	return n
}

// SubgridSize is the number of points in the largest per-PE subgrid — the
// virtual-subgrid loop trip count of §5.2 (before vector widening).
func (l Layout) SubgridSize() int {
	n := 1
	for _, b := range l.Block {
		n *= b
	}
	return n
}
