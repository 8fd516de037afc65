package shape

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the distribution plane of the shape layer: HPF-style
// per-array data distributions (PROCESSORS / DISTRIBUTE / ALIGN) that
// generalize the implicit blockwise layout of §3.3. The zero
// Distribution is the paper's default — every dimension BLOCK — an
// ordinary value: Blockwise is Distribute of it, and a directive-free
// program is laid out and priced like one that writes BLOCK everywhere.

// DistKind classifies the distribution of one array dimension.
type DistKind uint8

// Distribution kinds per dimension.
const (
	// DistBlock assigns contiguous index blocks to consecutive PEs —
	// the default blockwise layout of §3.3.
	DistBlock DistKind = iota
	// DistCyclic deals chunks of K elements round-robin across the
	// PEs of the dimension (K <= 1 is element cyclic).
	DistCyclic
	// DistStar leaves the dimension undistributed: every slice along
	// it is PE-local ("*" in the directive grammar).
	DistStar
)

func (k DistKind) String() string {
	switch k {
	case DistCyclic:
		return "cyclic"
	case DistStar:
		return "*"
	default:
		return "block"
	}
}

// DimDist is the distribution of a single array dimension.
type DimDist struct {
	Kind DistKind
	K    int // chunk size for DistCyclic; 0 or 1 means element cyclic
}

func (d DimDist) String() string {
	if d.Kind == DistCyclic && d.K > 1 {
		return fmt.Sprintf("cyclic(%d)", d.K)
	}
	return d.Kind.String()
}

// chunk is the normalized cyclic chunk size.
func (d DimDist) chunk() int {
	if d.K > 1 {
		return d.K
	}
	return 1
}

// same reports distribution equality with K normalized (K is only
// meaningful for cyclic dimensions).
func (d DimDist) same(o DimDist) bool {
	if d.Kind != o.Kind {
		return false
	}
	return d.Kind != DistCyclic || d.chunk() == o.chunk()
}

// Distribution is a per-array data-distribution specification: one
// DimDist per dimension plus the ALIGN provenance. The zero value (nil
// Dims) is the default blockwise distribution.
type Distribution struct {
	Dims []DimDist
	// Align names the template array this distribution was copied from
	// by an !HPF$ ALIGN directive; it is provenance only and does not
	// participate in equality.
	Align string
}

// IsDefault reports whether d is behaviorally the default blockwise
// distribution (no dims, or every dim BLOCK).
func (d Distribution) IsDefault() bool {
	for _, dd := range d.Dims {
		if dd.Kind != DistBlock {
			return false
		}
	}
	return true
}

// Dim returns the distribution of dimension i (0-based); dimensions
// beyond the spec are BLOCK, matching the default.
func (d Distribution) Dim(i int) DimDist {
	if i < 0 || i >= len(d.Dims) {
		return DimDist{Kind: DistBlock}
	}
	return d.Dims[i]
}

// Equal reports whether two distributions place the same elements on
// the same PEs for an array of the given rank. Align provenance is
// ignored; missing dims compare as BLOCK.
func (d Distribution) Equal(o Distribution, rank int) bool {
	for i := 0; i < rank; i++ {
		if !d.Dim(i).same(o.Dim(i)) {
			return false
		}
	}
	return true
}

// Reverse returns the distribution with its dimensions reversed over
// the given rank — the layout of a transposed array that stays aligned
// with its source.
func (d Distribution) Reverse(rank int) Distribution {
	dims := make([]DimDist, rank)
	for i := 0; i < rank; i++ {
		dims[i] = d.Dim(rank - 1 - i)
	}
	return Distribution{Dims: dims}
}

// String renders the dimension list in directive-spec form
// ("block,cyclic(4),*"); the default distribution renders empty.
func (d Distribution) String() string {
	if d.IsDefault() && d.Align == "" {
		return ""
	}
	parts := make([]string, len(d.Dims))
	for i, dd := range d.Dims {
		parts[i] = dd.String()
	}
	s := strings.Join(parts, ",")
	if d.Align != "" {
		s += "@" + d.Align
	}
	return s
}

// ParseDist parses a dimension list in directive-spec form: a
// comma-separated sequence of "block", "cyclic", "cyclic(k)", or "*"
// (case-insensitive, spaces ignored).
func ParseDist(spec string) (Distribution, error) {
	var d Distribution
	for _, part := range strings.Split(spec, ",") {
		part = strings.ToLower(strings.TrimSpace(part))
		switch {
		case part == "block":
			d.Dims = append(d.Dims, DimDist{Kind: DistBlock})
		case part == "cyclic":
			d.Dims = append(d.Dims, DimDist{Kind: DistCyclic})
		case part == "*":
			d.Dims = append(d.Dims, DimDist{Kind: DistStar})
		case strings.HasPrefix(part, "cyclic(") && strings.HasSuffix(part, ")"):
			k, err := strconv.Atoi(strings.TrimSpace(part[len("cyclic(") : len(part)-1]))
			if err != nil || k < 1 {
				return Distribution{}, fmt.Errorf("shape: bad cyclic chunk in %q", part)
			}
			d.Dims = append(d.Dims, DimDist{Kind: DistCyclic, K: k})
		default:
			return Distribution{}, fmt.Errorf("shape: unknown distribution format %q (want block, cyclic, cyclic(k), or *)", part)
		}
	}
	return d, nil
}

// Distribute computes the layout of s over pes processing elements
// under distribution d. Star dimensions are never split across PEs;
// cyclic dimensions deal their chunks round-robin, with Block holding
// the nominal worst-case per-PE extent (ceil of the chunk count over
// the dimension's PEs, times the chunk). Degenerate inputs are clamped
// like Blockwise.
func Distribute(s Shape, pes int, d Distribution) Layout {
	ext := sanitizeExtents(Extents(s))
	pes = sanitizePEs(pes)
	// perPE is the worst-case per-PE extent of dimension i when split
	// over p PEs — the greedy splitting measure.
	perPE := func(i, p int) int {
		dd := d.Dim(i)
		switch dd.Kind {
		case DistStar:
			return ext[i]
		case DistCyclic:
			k := dd.chunk()
			chunks := ceilDiv(ext[i], k)
			return min(ext[i], ceilDiv(chunks, p)*k)
		default:
			return ceilDiv(ext[i], p)
		}
	}
	pd := make([]int, len(ext))
	for i := range pd {
		pd[i] = 1
	}
	remaining := pes
	for remaining > 1 {
		// Find the dimension with the largest current per-PE extent
		// that can still usefully be split (star dims are never split).
		best, bestBlock := -1, 0
		for i := range ext {
			if d.Dim(i).Kind == DistStar {
				continue
			}
			b := perPE(i, pd[i])
			if b > bestBlock && b > 1 && perPE(i, pd[i]*2) < b {
				best, bestBlock = i, b
			}
		}
		if best < 0 {
			break // shape smaller than machine; leave remaining PEs idle
		}
		pd[best] *= 2
		remaining /= 2
	}
	block := make([]int, len(ext))
	for i := range ext {
		block[i] = perPE(i, pd[i])
	}
	l := Layout{Extents: ext, PEDims: pd, Block: block, PEs: pes}
	if !d.IsDefault() {
		l.Dist = Distribution{Dims: append([]DimDist(nil), d.Dims...)}
	}
	return l
}

// OwnerDim is the PE coordinate along dimension dim that owns 0-based
// index i under the layout's distribution; the partition layer counts
// points per PE coordinate with it when mapping distributions onto node
// subgrids.
func (l Layout) OwnerDim(dim, i int) int {
	pd := l.PEDims[dim]
	if pd <= 1 {
		return 0
	}
	dd := l.Dist.Dim(dim)
	switch dd.Kind {
	case DistStar:
		return 0
	case DistCyclic:
		return (i / dd.chunk()) % pd
	default:
		b := max(l.Block[dim], 1)
		return min(i/b, pd-1)
	}
}

// Owner is the PE (0-based, column-major over PEDims) owning the point
// with the given 0-based coordinates.
func (l Layout) Owner(idx ...int) int {
	pe, stride := 0, 1
	for d := range l.Extents {
		i := 0
		if d < len(idx) {
			i = idx[d]
		}
		pe += l.OwnerDim(d, i) * stride
		stride *= l.PEDims[d]
	}
	return pe
}

// ShiftCost models a circular shift by s along dim (0-based): the
// fraction of elements whose source lives on another PE and the
// PE-grid distance each travels. A dimension held on one PE is a pure
// local rotate. BLOCK dimensions send 1/block of their elements across
// a face per unit shift (all of them, when the block is one element),
// over |s| hops; CYCLIC dimensions are free when the shift is a
// multiple of chunk*PEs (every element's partner stays home), and
// otherwise move everything with a torus-minimal hop distance.
func (l Layout) ShiftCost(dim, s int) (offFrac, hops float64) {
	if dim < 0 || dim >= len(l.Block) {
		return 1, abs(s)
	}
	pd := l.PEDims[dim]
	dd := l.Dist.Dim(dim)
	if dd.Kind == DistStar || pd <= 1 {
		return 0, 0
	}
	if dd.Kind != DistCyclic {
		return 1 / float64(l.Block[dim]), abs(s)
	}
	k := dd.chunk()
	a := s
	if a < 0 {
		a = -a
	}
	if a%k == 0 {
		steps := (a / k) % pd
		if steps == 0 {
			return 0, 0
		}
		return 1, float64(min(steps, pd-steps))
	}
	steps := ceilDiv(a, k) % pd
	return 1, float64(max(1, min(steps, pd-steps)))
}

func abs(s int) float64 {
	if s < 0 {
		return float64(-s)
	}
	return float64(s)
}
