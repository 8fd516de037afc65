package peac

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// vectorCase is one vector body under test, as the lane loop the
// executor runs (vec) and the Go loop it must agree with (scalar).
type vectorCase struct {
	name        string
	vec, scalar LaneFunc
}

// vectorCases lists every body: the op-table rows that have one, against
// their own Go loops, and the 32 fused pairs, against the unfused pair
// of Go loops they replace.
func vectorCases() []vectorCase {
	cases := []vectorCase{
		{"faddv", ops[FADDV].Lanes, lanesAdd},
		{"fsubv", ops[FSUBV].Lanes, lanesSub},
		{"fmulv", ops[FMULV].Lanes, lanesMul},
		{"fdivv", ops[FDIVV].Lanes, lanesDiv},
		{"fmaddv", ops[FMADDV].Lanes, lanesFmadd},
		{"fmsubv", ops[FMSUBV].Lanes, lanesFmsub},
	}
	loops := [4]LaneFunc{lanesAdd, lanesSub, lanesMul, lanesDiv}
	names := [4]string{"add", "sub", "mul", "div"}
	for i, op1 := range loops {
		for j, op2 := range loops {
			for side := range 2 {
				unfused := func(dst, x, y, z []float64) {
					t := make([]float64, len(dst))
					op1(t, x, y, nil)
					if side == pairLeft {
						op2(dst, t, z, nil)
					} else {
						op2(dst, z, t, nil)
					}
				}
				name := fmt.Sprintf("%s-%s-%c", names[i], names[j], "RL"[side])
				cases = append(cases, vectorCase{name, Vector(PairBody(i, j, side), unfused), unfused})
			}
		}
	}
	return cases
}

// specials are the lanes IEEE arithmetic treats apart: signed zeros and
// infinities, quiet and signalling NaNs with distinct payloads,
// subnormals, the largest finite values, and 1±2⁻³⁰, whose product
// rounds differently fused and unfused.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000abc),
	math.Float64frombits(0x7ff0000000000002), math.Float64frombits(0xfff4000000000003),
	math.SmallestNonzeroFloat64, -5e-320, 2.2250738585072e-308,
	math.MaxFloat64, -math.MaxFloat64, 1 + 0x1p-30, 1 - 0x1p-30, 1, -1,
}

// fill gives each lane a special value a third of the time and a random
// finite one otherwise.
func fill(rng *rand.Rand, s []float64) {
	for i := range s {
		if rng.Intn(3) == 0 {
			s[i] = specials[rng.Intn(len(specials))]
		} else {
			s[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(40)-20)
		}
	}
}

// TestVectorBodiesMatchScalar holds every vector body to its Go loop
// under the executor's contract: bit for bit on every lane the Go loop
// does not make NaN, NaN wherever it does. It covers every length from 0
// to 70 (no vector prefix, prefix with and without a tail) and two strip
// sizes, unaligned slices, dst naming x, y or z exactly, and a dst that
// overlaps x one lane further on, which must run the Go loop whole.
func TestVectorBodiesMatchScalar(t *testing.T) {
	if !hasVector {
		t.Log("no vector bodies on this host: every op runs its Go loop")
	}
	lengths := []int{512, 4096}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	rng := rand.New(rand.NewSource(26))
	for _, tc := range vectorCases() {
		for _, n := range lengths {
			for off := 0; off < 4; off++ {
				var in [3][]float64
				for k := range in {
					in[k] = make([]float64, off+n)[off:]
					fill(rng, in[k])
				}
				// alias -1: a fresh dst; 0, 1, 2: dst is x, y or z.
				for alias := -1; alias < 3; alias++ {
					run := func(f LaneFunc) []float64 {
						var src [3][]float64
						for k := range src {
							src[k] = append(make([]float64, off)[:off:off], in[k]...)[off:]
						}
						dst := make([]float64, off+n)[off:]
						if alias >= 0 {
							dst = src[alias]
						}
						f(dst, src[0], src[1], src[2])
						return dst
					}
					got, want := run(tc.vec), run(tc.scalar)
					for i := range want {
						if !sameLane(got[i], want[i]) {
							t.Fatalf("%s n=%d off=%d alias=%d lane %d (%v, %v, %v): %v (%#x), Go loop %v (%#x)",
								tc.name, n, off, alias, i, in[0][i], in[1][i], in[2][i],
								got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
						}
					}
				}
			}
		}
		// dst one lane past x: each lane reads the one the previous lane
		// wrote, which only the Go loop's order gives.
		const n = 64
		buf := make([]float64, n+1)
		fill(rng, buf)
		y, z := make([]float64, n), make([]float64, n)
		fill(rng, y)
		fill(rng, z)
		got, want := append([]float64(nil), buf...), append([]float64(nil), buf...)
		tc.vec(got[1:], got[:n], y, z)
		tc.scalar(want[1:], want[:n], y, z)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: partial overlap lane %d = %v, Go loop %v: the vector body ran", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestFmaddRoundsTwice pins fmaddv and fmsubv to two roundings, the
// product's and the sum's, on the vector lanes and the tail alike:
// (1+2⁻³⁰)(1−2⁻³⁰) = 1−2⁻⁶⁰ rounds to 1, so adding −1 gives 0, where a
// fused multiply-add would give −2⁻⁶⁰.
func TestFmaddRoundsTwice(t *testing.T) {
	const n = 11 // 8 vector lanes and a 3-lane tail
	x, y := make([]float64, n), make([]float64, n)
	zAdd, zSub := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i], zAdd[i], zSub[i] = 1+0x1p-30, 1-0x1p-30, -1, 1
	}
	for _, tc := range []struct {
		name string
		fn   LaneFunc
		z    []float64
	}{
		{"fmaddv", ops[FMADDV].Lanes, zAdd},
		{"fmsubv", ops[FMSUBV].Lanes, zSub},
		{"fmaddv Go loop", lanesFmadd, zAdd},
		{"fmsubv Go loop", lanesFmsub, zSub},
	} {
		dst := make([]float64, n)
		tc.fn(dst, x, y, tc.z)
		for i, v := range dst {
			if math.Float64bits(v) != 0 {
				t.Errorf("%s lane %d = %v, want +0 (a fused multiply-add gives -2⁻⁶⁰)", tc.name, i, v)
			}
		}
	}
}

// TestTranscendentalRepeats holds the transcendental loops, which reuse
// the previous lane's result when its input bits repeat, to the function
// applied lane by lane: across runs of +0 and −0 (told apart), NaNs with
// equal and distinct payloads, and in place, where a lane's input equals
// the previous lane's result.
func TestTranscendentalRepeats(t *testing.T) {
	nz := math.Copysign(0, -1)
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002)
	for _, op := range []Opcode{FSINV, FCOSV, FTANV, FEXPV, FLOGV} {
		f := map[Opcode]func(float64) float64{
			FSINV: math.Sin, FCOSV: math.Cos, FTANV: math.Tan, FEXPV: math.Exp, FLOGV: math.Log,
		}[op]
		x := []float64{0.5, f(0.5), f(0.5), 0, 0, nz, nz, 0, nan1, nan1, nan2, nan1, 1, 1, 2, 0.5}
		want := make([]float64, len(x))
		for i, v := range x {
			want[i] = f(v)
		}
		got := make([]float64, len(x))
		ops[op].Lanes(got, x, nil, nil)
		inPlace := append([]float64(nil), x...)
		ops[op].Lanes(inPlace, inPlace, nil, nil)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(inPlace[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s lane %d (%v): %v, in place %v, want %v", op.Info().Name, i, x[i], got[i], inPlace[i], want[i])
			}
		}
	}
}

// BenchmarkLaneBodies is the roofline row of the PE lane loops: a copy
// (the memmove floor), add, mul, fmadd and the fused sub-then-mul pair,
// each as its Go loop and as the loop the executor runs, over one
// 512-lane strip (L1-resident) and one 4096-lane chunk. SetBytes counts
// the bytes a lane streams: 8 per source read and 8 for dst.
//
//	go test -run '^$' -bench LaneBodies -benchtime 200000x ./internal/peac
func BenchmarkLaneBodies(b *testing.B) {
	// The Go loop of cm2's fuseSubMulR: z * (x - y), the difference rounded.
	subMulR := func(dst, x, y, z []float64) {
		x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
		for i := range dst {
			dst[i] = z[i] * float64(x[i]-y[i])
		}
	}
	rows := []struct {
		name        string
		srcs        int
		scalar, vec LaneFunc
	}{
		{"copy", 1, lanesMov, lanesMov},
		{"add", 2, lanesAdd, ops[FADDV].Lanes},
		{"mul", 2, lanesMul, ops[FMULV].Lanes},
		{"fmadd", 3, lanesFmadd, ops[FMADDV].Lanes},
		{"fuseSubMulR", 3, subMulR, Vector(PairBody(bodySub, bodyMul, 0), subMulR)},
	}
	for _, n := range []int{512, 4096} {
		dst, x, y, z := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], y[i], z[i] = float64(i)+0.5, 1.25, float64(n-i)
		}
		for _, r := range rows {
			for _, side := range []struct {
				name string
				fn   LaneFunc
			}{{"scalar", r.scalar}, {"vector", r.vec}} {
				b.Run(fmt.Sprintf("%s/%d/%s", r.name, n, side.name), func(b *testing.B) {
					b.SetBytes(int64(8 * n * (r.srcs + 1)))
					for i := 0; i < b.N; i++ {
						side.fn(dst, x, y, z)
					}
				})
			}
		}
	}
}
