package cm2

import (
	"testing"

	"f90y/internal/peac"
)

// coldRoutine is a node routine of the shape the benchmark's compile_big
// and serve_cold programs dispatch — every routine once, cold, over 256
// elements: a fused run of "x = 0.5*y + 0.25*z + c" statements and one
// WHERE/ELSEWHERE block, transcribed from `f90yc -dump peac` of such a
// program (30 instructions and the jnz; fifteen pointer registers over
// six arrays, so stores alias loads as they do there).
func coldRoutine() *peac.Routine {
	V, S, M := peac.V, peac.S, peac.M
	r := &peac.Routine{Name: "Pcold", Body: []peac.Instr{
		{Op: peac.FLODV, A: M(2), D: V(0)},
		{Op: peac.FMULV, A: S(17), B: M(3), D: V(1)},
		{Op: peac.FMADDV, A: S(16), B: V(0), C: V(1), D: V(0)},
		{Op: peac.FADDV, A: V(0), B: S(18), D: V(0)},
		{Op: peac.FSTRV, A: V(0), D: M(4)},
		{Op: peac.FLODV, A: M(5), D: V(1)},
		{Op: peac.FMULV, A: S(17), B: M(6), D: V(2)},
		{Op: peac.FMADDV, A: S(16), B: V(1), C: V(2), D: V(1)},
		{Op: peac.FADDV, A: V(1), B: S(19), D: V(1)},
		{Op: peac.FSTRV, A: V(1), D: M(7)},
		{Op: peac.FLODV, A: M(8), D: V(2)},
		{Op: peac.FCMPV, Cmp: peac.CmpGT, A: V(2), B: S(20), D: V(3)},
		{Op: peac.FLODV, A: M(9), D: V(4), Paired: true},
		{Op: peac.FMULV, A: S(16), B: V(4), D: V(5)},
		{Op: peac.FSTRV, A: V(5), C: V(3), D: M(10)},
		{Op: peac.FNOTV, A: V(3), D: V(6)},
		{Op: peac.FSELV, A: V(5), B: V(4), C: V(3), D: V(3)},
		{Op: peac.FMADDV, A: S(17), B: V(3), C: S(21), D: V(3)},
		{Op: peac.FSTRV, A: V(3), C: V(6), D: M(11)},
		{Op: peac.FMULV, A: S(17), B: V(0), D: V(3)},
		{Op: peac.FMADDV, A: S(16), B: V(2), C: V(3), D: V(2)},
		{Op: peac.FADDV, A: V(2), B: S(22), D: V(2)},
		{Op: peac.FSTRV, A: V(2), D: M(12)},
		{Op: peac.FMULV, A: S(17), B: M(13), D: V(3)},
		{Op: peac.FMADDV, A: S(16), B: V(2), C: V(3), D: V(3)},
		{Op: peac.FADDV, A: V(3), B: S(23), D: V(3)},
		{Op: peac.FSTRV, A: V(3), D: M(14)},
		{Op: peac.FMULV, A: S(17), B: V(3), D: V(3)},
		{Op: peac.FMADDV, A: S(16), B: V(1), C: V(3), D: V(1)},
		{Op: peac.FSTRV, A: V(1), D: M(15)},
		{Op: peac.JNZ},
	}}
	arrays := []string{"x0", "x1", "x2", "x3", "x4", "x5"}
	for reg := 2; reg <= 15; reg++ {
		r.Params = append(r.Params, peac.Param{Kind: peac.ArrayParam, Name: arrays[reg%len(arrays)], Reg: reg})
	}
	for reg := 16; reg <= 23; reg++ {
		r.Params = append(r.Params, peac.Param{Kind: peac.ConstParam, Value: float64(reg) / 64, Reg: reg})
	}
	return r
}

// BenchmarkColdDispatch is the condition behind "a routine has one
// translated form whatever its size" (EXPERIMENTS B4): a never-seen
// routine dispatched once over 256 elements must cost no more decoded
// and run (translated) than walked by the reference evaluator, and
// decoding alone must stay a handful of allocations. Each iteration also
// allocates the fresh peac.Routine it dispatches (one object).
func BenchmarkColdDispatch(b *testing.B) {
	const n = 256
	proto := coldRoutine()
	st := parStore(n, []string{"x0", "x1", "x2", "x3", "x4", "x5"},
		func(_ string, i int) float64 { return float64(i%17) / 17 })
	dispatch := func(e Engine) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := execEngine(e, fresh(proto), n, st, ExecOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("translated", dispatch(EngineTranslated))
	b.Run("reference", dispatch(EngineReference))
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		var p *program
		for i := 0; i < b.N; i++ {
			p = decode(proto)
		}
		if len(p.steps) != len(proto.Body) {
			b.Fatal("decode dropped steps")
		}
	})
}
