package partition

import (
	"math/rand"
	"testing"

	"f90y/internal/shape"
)

// randDist draws a random per-dimension distribution: block, cyclic,
// cyclic(k), or star.
func randDist(rng *rand.Rand, rank int) shape.Distribution {
	var d shape.Distribution
	for i := 0; i < rank; i++ {
		switch rng.Intn(4) {
		case 0:
			d.Dims = append(d.Dims, shape.DimDist{Kind: shape.DistBlock})
		case 1:
			d.Dims = append(d.Dims, shape.DimDist{Kind: shape.DistCyclic})
		case 2:
			d.Dims = append(d.Dims, shape.DimDist{Kind: shape.DistCyclic, K: 1 + rng.Intn(8)})
		default:
			d.Dims = append(d.Dims, shape.DimDist{Kind: shape.DistStar})
		}
	}
	return d
}

// bruteCounts walks every point of the layout's index space and tallies
// how many each linear PE owns.
func bruteCounts(lo shape.Layout) map[int]int {
	counts := map[int]int{}
	idx := make([]int, len(lo.Extents))
	total := 1
	for _, e := range lo.Extents {
		total *= e
	}
	for n := 0; n < total; n++ {
		counts[lo.Owner(idx...)]++
		for d := range idx {
			idx[d]++
			if idx[d] < lo.Extents[d] {
				break
			}
			idx[d] = 0
		}
	}
	return counts
}

// TestDistributionCoversShape is the satellite property test: for
// randomized extents, power-of-two PE counts, and arbitrary mixed
// distributions, the ownership map partitions the index space exactly —
// every point has one owner, per-dimension counts sum to the extents,
// and no PE exceeds the nominal per-PE block bound.
func TestDistributionCoversShape(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		rank := 1 + rng.Intn(3)
		ext := make([]int, rank)
		for i := range ext {
			ext[i] = 1 + rng.Intn(24)
		}
		pes := 1 << rng.Intn(7) // 1..64
		d := randDist(rng, rank)
		lo := shape.Distribute(shape.Of(ext...), pes, d)

		if err := CheckCover(lo); err != nil {
			t.Fatalf("trial %d ext=%v pes=%d dist=%q: %v", trial, ext, pes, d.String(), err)
		}

		counts := bruteCounts(lo)
		total, most := 0, 0
		for pe, c := range counts {
			grid := 1
			for _, p := range lo.PEDims {
				grid *= p
			}
			if pe < 0 || pe >= grid {
				t.Fatalf("trial %d: owner %d outside PE grid of %d", trial, pe, grid)
			}
			total += c
			if c > most {
				most = c
			}
		}
		want := 1
		for _, e := range ext {
			want *= e
		}
		if total != want {
			t.Fatalf("trial %d ext=%v pes=%d dist=%q: owned %d points, shape has %d",
				trial, ext, pes, d.String(), total, want)
		}
		if got := MaxPointsPerPE(lo); got != most {
			t.Fatalf("trial %d ext=%v pes=%d dist=%q: MaxPointsPerPE=%d, brute-force max=%d",
				trial, ext, pes, d.String(), got, most)
		}
		if most > lo.SubgridSize() {
			t.Fatalf("trial %d ext=%v pes=%d dist=%q: worst PE owns %d > nominal subgrid %d",
				trial, ext, pes, d.String(), most, lo.SubgridSize())
		}
	}
}

// TestNodeSubgridSizeDefaultGate proves the gate a shortcut, not a
// second model: for an all-BLOCK layout the nominal Block product
// NodeSubgridSize returns IS the exact worst-PE count.
func TestNodeSubgridSizeDefaultGate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rank := 1 + rng.Intn(3)
		ext := make([]int, rank)
		for i := range ext {
			ext[i] = 1 + rng.Intn(100)
		}
		pes := 1 << rng.Intn(12)
		lo := shape.Blockwise(shape.Of(ext...), pes)
		if got, want := NodeSubgridSize(lo), MaxPointsPerPE(lo); got != want || got != lo.SubgridSize() {
			t.Fatalf("ext=%v pes=%d: NodeSubgridSize=%d, MaxPointsPerPE=%d, SubgridSize=%d", ext, pes, got, want, lo.SubgridSize())
		}
	}
	// An explicit cyclic layout takes the exact-count path.
	lo := shape.Distribute(shape.Of(10), 4, shape.Distribution{Dims: []shape.DimDist{{Kind: shape.DistCyclic}}})
	if got := NodeSubgridSize(lo); got != MaxPointsPerPE(lo) {
		t.Fatalf("cyclic NodeSubgridSize=%d, MaxPointsPerPE=%d", got, MaxPointsPerPE(lo))
	}
}
