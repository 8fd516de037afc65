package rt

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"strings"
	"testing"

	"f90y/internal/faults"
	"f90y/internal/nir"
	"f90y/internal/shape"
)

// parSizes are the payload sizes the fan-out is held at: one element,
// either side of one Grain, and past two with a ragged last block. Each
// comes with a rectangular r×c factoring for the 2-D moves.
var parSizes = []struct{ n, r, c int }{
	{1, 1, 1},
	{Grain - 1, 63, 65},
	{Grain, 64, 64},
	{Grain + 1, 17, 241},
	{3*Grain + 5, 19, 647},
}

// parStore holds, for payload size n = r·c: v, w and idx of extent n
// (idx a near-neighbour gather index), m of r×c, mt of c×r, and m2, m3
// the shapes of m and mt again for shifted copies. Every array is under
// dist of its rank, and every destination starts at values no move
// writes, so a move that leaves an element unwritten shows.
func parStore(n, r, c int, d1, d2 shape.Distribution) *Store {
	st := &Store{Arrays: map[string]*Array{}, Scalars: map[string]float64{}, Kinds: map[string]nir.ScalarKind{}}
	add := func(name string, kind nir.ScalarKind, d shape.Distribution, ext ...int) *Array {
		a := NewArray(kind, shape.Of(ext...))
		a.Dist = d
		for i := range a.Data {
			a.Data[i] = -0.5 - float64(i)
		}
		st.Arrays[name], st.Kinds[name] = a, kind
		return a
	}
	v := add("v", nir.Float64, d1, n)
	add("w", nir.Float64, d1, n)
	idx := add("idx", nir.Integer32, d1, n)
	m := add("m", nir.Float64, d2, r, c)
	mt := add("mt", nir.Float64, d2, c, r)
	add("m2", nir.Float64, d2, r, c)
	add("m3", nir.Float64, d2, c, r)
	for i := range v.Data {
		v.Data[i] = math.Sin(float64(i)) * 1e3
		idx.Data[i] = float64(1 + (i+(7*i)%5-2+2*n)%n)
	}
	for i := range m.Data {
		m.Data[i] = math.Cos(float64(i))
		mt.Data[i] = float64(i) / 3
	}
	return st
}

// commCall is the one-move program tgt = fn(args...).
func commCall(tgt, fn string, args ...nir.Value) nir.Move {
	return nir.Move{Over: shape.Of(1), Moves: []nir.GuardedMove{{
		Mask: nir.True, Src: nir.FcnCall{Name: fn, Args: args}, Tgt: every(tgt)}}}
}

// parMove is a comm op that fills a payload: its destination and the
// reference value of its element p, from the definition alone.
type parMove struct {
	name, dst string
	mv        nir.Move
	ref       func(st *Store, p int) float64
}

// parMoves are the gather, both transposes and the copying shifts over
// parStore(n, r, c).
func parMoves(n, r, c int) []parMove {
	ic := func(k int) nir.Value { return nir.IntConst(int64(k)) }
	out := []parMove{
		{"gather", "w", commCall("w", "cm_gather", every("v"), every("idx")), func(st *Store, p int) float64 {
			return st.Arrays["v"].Data[int(st.Arrays["idx"].Data[p])-1]
		}},
		{"transpose-m", "mt", commCall("mt", "cm_transpose", every("m")), func(st *Store, p int) float64 {
			return st.Arrays["m"].Data[p/c+(p%c)*r]
		}},
		{"transpose-mt", "m", commCall("m", "cm_transpose", every("mt")), func(st *Store, p int) float64 {
			return st.Arrays["mt"].Data[p/r+(p%r)*c]
		}},
	}
	// shiftRef is element p of src (extents ext) shifted by s along d.
	shiftRef := func(src string, ext []int, d, s int, circular bool, bnd float64) func(*Store, int) float64 {
		return func(st *Store, p int) float64 {
			stride := 1
			for _, e := range ext[:d] {
				stride *= e
			}
			i := p / stride % ext[d]
			j := i + s
			if circular {
				j = ((j % ext[d]) + ext[d]) % ext[d]
			} else if j < 0 || j >= ext[d] {
				return bnd
			}
			return st.Arrays[src].Data[p+(j-i)*stride]
		}
	}
	for _, s := range []int{1, -3, n + 2} {
		out = append(out,
			parMove{fmt.Sprintf("cshift-v-%d", s), "w", commCall("w", "cm_cshift", every("v"), ic(s), ic(1)),
				shiftRef("v", []int{n}, 0, s, true, 0)},
			parMove{fmt.Sprintf("eoshift-v-%d", s), "w", commCall("w", "cm_eoshift", every("v"), ic(s), nir.FloatConst(-7.25), ic(1)),
				shiftRef("v", []int{n}, 0, s, false, -7.25)})
	}
	for _, s := range []int{2, -1, c + 5} {
		for dim := 1; dim <= 2; dim++ {
			out = append(out,
				parMove{fmt.Sprintf("cshift-m-%d-dim%d", s, dim), "m2", commCall("m2", "cm_cshift", every("m"), ic(s), ic(dim)),
					shiftRef("m", []int{r, c}, dim-1, s, true, 0)},
				parMove{fmt.Sprintf("eoshift-mt-%d-dim%d", s, dim), "m3", commCall("m3", "cm_eoshift", every("mt"), ic(-s), nir.FloatConst(3.5), ic(dim)),
					shiftRef("mt", []int{c, r}, dim-1, -s, false, 3.5)})
		}
	}
	return out
}

// TestCommWorkersBitIdentical: gather, transpose and copying shifts
// fill their payload on 1, 2, 3 and 8 workers with stores bit-equal to
// the definition and to each other, and with Cycles, ClassCycles and
// LineCycles equal — at every size around the grain, under BLOCK and
// CYCLIC layouts, with no injector and with a zero-rate one armed
// (which stages every payload). A payload from two Grain up fans out
// at more than one worker; below, or at one worker, it never does.
func TestCommWorkersBitIdentical(t *testing.T) {
	cyc2 := shape.Distribution{Dims: []shape.DimDist{{Kind: shape.DistCyclic}, {Kind: shape.DistCyclic}}}
	layouts := []struct {
		name   string
		d1, d2 shape.Distribution
	}{{"block", shape.Distribution{}, shape.Distribution{}}, {"cyclic", cyclic, cyc2}}
	type outcome struct {
		data   []float64
		cycles float64
		class  map[string]float64
		lines  map[LineRef]float64
	}
	for _, sz := range parSizes {
		for _, lay := range layouts {
			for _, armed := range []bool{false, true} {
				for _, pm := range parMoves(sz.n, sz.r, sz.c) {
					name := fmt.Sprintf("n=%d/%s/armed=%v/%s", sz.n, lay.name, armed, pm.name)
					var ref *outcome
					for _, w := range []int{1, 2, 3, 8} {
						st := parStore(sz.n, sz.r, sz.c, lay.d1, lay.d2)
						c := &Comm{Store: st, PEs: 64, Cost: DefaultCommCost, Workers: w, OpCalls: map[string]float64{}}
						if armed {
							c.Faults = faults.New(&faults.Plan{Seed: 7}, nil)
						}
						if err := c.ExecMove(pm.mv); err != nil {
							t.Fatalf("%s workers=%d: %v", name, w, err)
						}
						// A transpose's blocks are rows (TestTransposeFansOutByRows).
						if want := w > 1 && sz.n >= 2*Grain; !strings.HasPrefix(pm.name, "transpose") && (c.Parallel > 0) != want {
							t.Errorf("%s workers=%d: %d fan-outs, want fanned out %v", name, w, c.Parallel, want)
						}
						got := &outcome{append([]float64(nil), st.Arrays[pm.dst].Data...), c.Cycles, c.ClassCycles, c.LineCycles}
						if ref == nil {
							for p, v := range got.data {
								if want := pm.ref(st, p); math.Float64bits(v) != math.Float64bits(want) {
									t.Fatalf("%s: %s[%d] = %v, the definition gives %v", name, pm.dst, p, v, want)
								}
							}
							if pm.name == "gather" {
								// The per-block owner counts sum to the pointOwner count.
								gs := shape.Distribute(shape.Of(sz.n), c.PEs, lay.d1)
								off := 0
								for i, v := range st.Arrays["idx"].Data {
									if pointOwner(gs, int(v)-1) != pointOwner(gs, i) {
										off++
									}
								}
								if _, want := c.Cost.Routed(off, sz.n-off, gs); c.Cycles != want {
									t.Fatalf("%s: %v cycles, %d owner changes price %v", name, c.Cycles, off, want)
								}
							}
							ref = got
							continue
						}
						for p, v := range got.data {
							if math.Float64bits(v) != math.Float64bits(ref.data[p]) {
								t.Fatalf("%s workers=%d: %s[%d] = %v, one worker wrote %v", name, w, pm.dst, p, v, ref.data[p])
							}
						}
						if got.cycles != ref.cycles || !maps.Equal(got.class, ref.class) || !maps.Equal(got.lines, ref.lines) {
							t.Fatalf("%s workers=%d: cycles %v %v %v, one worker charged %v %v %v",
								name, w, got.cycles, got.class, got.lines, ref.cycles, ref.class, ref.lines)
						}
					}
				}
			}
		}
	}
}

// TestTransposeFansOutByRows: a transpose's blocks are whole rows of
// its destination, at least one tile and one Grain of them, so a
// 647×19 source (12,293 elements, 215-row blocks) fans out and a 19×647
// one (one 32-row block) does not.
func TestTransposeFansOutByRows(t *testing.T) {
	for _, tc := range []struct {
		r, c int
		fan  bool
	}{{647, 19, true}, {19, 647, false}} {
		st := parStore(tc.r*tc.c, tc.r, tc.c, shape.Distribution{}, shape.Distribution{})
		c := &Comm{Store: st, PEs: 64, Cost: DefaultCommCost, Workers: 2, OpCalls: map[string]float64{}}
		if err := c.ExecMove(commCall("mt", "cm_transpose", every("m"))); err != nil {
			t.Fatal(err)
		}
		if got := c.Parallel == 1; got != tc.fan {
			t.Errorf("%d×%d: %d fan-outs, want fanned out %v", tc.r, tc.c, c.Parallel, tc.fan)
		}
	}
}

// TestGatherBadIndexLeavesOutUntouched: a bad gather index — in the
// first block, in the last, or one in each of two blocks — fails with
// the text the serial loop gives for the lowest bad index, at every
// worker count, and out keeps every bit it had: the bounds pass runs
// over all of idx before the fetch pass writes anything.
func TestGatherBadIndexLeavesOutUntouched(t *testing.T) {
	const n = 3*Grain + 5
	cases := []struct {
		name string
		bad  map[int]float64 // position -> bad index value
		want float64
	}{
		{"first-block", map[int]float64{5: 0}, 0},
		{"last-block", map[int]float64{n - 2: n + 1}, n + 1},
		{"two-blocks", map[int]float64{2*Grain + 3: -4, Grain + 7: n + 9}, n + 9},
	}
	for _, tc := range cases {
		for _, armed := range []bool{false, true} {
			for _, w := range []int{1, 2, 8} {
				st := parStore(n, 1, n, cyclic, shape.Distribution{})
				for p, v := range tc.bad {
					st.Arrays["idx"].Data[p] = v
				}
				before := append([]float64(nil), st.Arrays["w"].Data...)
				c := &Comm{Store: st, PEs: 64, Cost: DefaultCommCost, Workers: w}
				if armed {
					c.Faults = faults.New(&faults.Plan{Seed: 7}, nil)
				}
				err := c.ExecMove(commCall("w", "cm_gather", every("v"), every("idx")))
				want := fmt.Sprintf("rt: gather index %d out of bounds: %v", int(tc.want), ErrShape)
				if !errors.Is(err, ErrShape) || err.Error() != want {
					t.Fatalf("%s armed=%v workers=%d: %v, want %q", tc.name, armed, w, err, want)
				}
				for i, v := range st.Arrays["w"].Data {
					if math.Float64bits(v) != math.Float64bits(before[i]) {
						t.Fatalf("%s armed=%v workers=%d: w[%d] = %v after a failed gather, was %v", tc.name, armed, w, i, v, before[i])
					}
				}
				if c.Cycles != 0 {
					t.Fatalf("%s armed=%v workers=%d: a failed gather charged %v cycles", tc.name, armed, w, c.Cycles)
				}
			}
		}
	}
}

// TestHealthyGatherStagesNothing: a healthy gather builds its payload in
// the destination, so it makes no staging slab and copies no staged
// byte; armed (even at zero rates) it stages, in a slab of its own —
// advised onto huge pages at 2 MB, where the platform can.
func TestHealthyGatherStagesNothing(t *testing.T) {
	const n = hugePage / 8
	for _, armed := range []bool{false, true} {
		st := parStore(n, 1, n, cyclic, shape.Distribution{})
		c := &Comm{Store: st, PEs: 2048, Cost: DefaultCommCost, OpCalls: map[string]float64{}}
		if armed {
			c.Faults = faults.New(&faults.Plan{Seed: 7}, nil)
		}
		if err := c.ExecMove(commCall("w", "cm_gather", every("v"), every("idx"))); err != nil {
			t.Fatal(err)
		}
		wantStaged, wantHuge := 0, 0
		if armed {
			wantStaged = 8 * n
			if runtime.GOOS == "linux" {
				wantHuge = 1
			}
		}
		if c.StageBytes != wantStaged || st.ArenaHuge != wantHuge {
			t.Errorf("armed=%v: %d staged bytes, %d huge slabs; want %d and %d", armed, c.StageBytes, st.ArenaHuge, wantStaged, wantHuge)
		}
	}
}

// benchComm runs mv b.N times on a fresh comm of the CM/2's 2,048 PEs
// at one and two workers, counting the payload's bytes.
func benchComm(b *testing.B, st *Store, mv nir.Move, bytes int64) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			c := &Comm{Store: st, PEs: 2048, Cost: DefaultCommCost, Workers: w}
			b.SetBytes(bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.ExecMove(mv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTranspose is the router workload's transpose at its size: a
// 512² (CYCLIC, CYCLIC) matrix, the in-process row a comm change is
// measured against with BenchmarkGather.
func BenchmarkTranspose(b *testing.B) {
	const m = 512
	cyc2 := shape.Distribution{Dims: []shape.DimDist{{Kind: shape.DistCyclic}, {Kind: shape.DistCyclic}}}
	ta, tb := NewArray(nir.Float64, shape.Of(m, m)), NewArray(nir.Float64, shape.Of(m, m))
	ta.Dist, tb.Dist = cyc2, cyc2
	st := &Store{Arrays: map[string]*Array{"a": ta, "b": tb}, Scalars: map[string]float64{}}
	benchComm(b, st, transposeMove(), 8*m*m)
}

// BenchmarkGather is the router workload's gather at its size: 2²⁰
// elements, CYCLIC, bench/workloads.go genRouter's near-neighbour index.
func BenchmarkGather(b *testing.B) {
	const n = 1 << 20
	st := gatherStore(n, cyclic, func(i int) int {
		i++
		return 1 + (i-1+(7*i)%5-2+n)%n
	})
	st.Arrays["b"].Dist, st.Arrays["idx"].Dist = cyclic, cyclic
	benchComm(b, st, gatherMove(), 8*n)
}
