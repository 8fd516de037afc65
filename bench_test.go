package f90y

// The benchmark harness regenerates every quantitative artifact of the
// paper's evaluation (§6 and Figs. 9-12) plus the ablations DESIGN.md
// calls out. Each benchmark executes the full pipeline on the simulated
// machine and reports the *modeled* machine metrics (gflops, cycles,
// instruction counts) via b.ReportMetric; Go wall time measures only the
// simulator itself. cmd/swebench prints the same results as tables.
//
// Paper targets (§6): *Lisp 1.89 GF, CM Fortran v1.1 2.79 GF,
// Fortran-90-Y 2.99 GF on SWE. The modeled numbers reproduce those at the
// calibration size (1024x1024); benchmark sizes here are smaller so the
// suite stays fast — the E1 check at full size runs in TestE1PaperScale
// (guarded by -short).

import (
	"context"
	"strings"
	"testing"
	"time"

	"f90y/internal/cm2"
	"f90y/internal/cm5"
	"f90y/internal/obs"
	"f90y/internal/opt"
	"f90y/internal/pe"
	"f90y/internal/peac"
	"f90y/internal/starlisp"
	"f90y/internal/workload"
)

const (
	benchN     = 256
	benchSteps = 2
)

func compileRun(tb testing.TB, src string, cfg Config) *cm2.Result {
	tb.Helper()
	comp, err := Compile("bench.f90", src, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := comp.Run(context.Background(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// ---- E1: §6 performance table ----

func BenchmarkSWE_StarLisp(b *testing.B) {
	var last starlisp.Result
	for i := 0; i < b.N; i++ {
		_, last = starlisp.RunSWE(benchN, benchSteps, starlisp.DefaultModel)
	}
	b.ReportMetric(last.GFLOPS(starlisp.DefaultModel.ClockHz), "gflops-modeled")
	b.ReportMetric(float64(last.Ops), "array-ops")
}

func BenchmarkSWE_CMF(b *testing.B) {
	src := workload.SWE(benchN, benchSteps)
	var last *cm2.Result
	for i := 0; i < b.N; i++ {
		last = compileRun(b, src, CMFConfig())
	}
	b.ReportMetric(last.GFLOPS(), "gflops-modeled")
	b.ReportMetric(float64(last.NodeCalls), "node-calls")
}

func BenchmarkSWE_F90Y(b *testing.B) {
	src := workload.SWE(benchN, benchSteps)
	var last *cm2.Result
	for i := 0; i < b.N; i++ {
		last = compileRun(b, src, DefaultConfig())
	}
	b.ReportMetric(last.GFLOPS(), "gflops-modeled")
	b.ReportMetric(float64(last.NodeCalls), "node-calls")
}

// BenchmarkSWE_ExecWorkers measures the sharded PEAC executor: one SWE
// compilation run repeatedly at forced widths 1/2/4/8. Modeled
// metrics (gflops, cycles) are identical across sub-benchmarks by
// construction — only host wall-clock (ns/op) changes, which is the
// point: the speedup EXPERIMENTS.md records comes from this benchmark.
// The engine is the production default: every SWE routine here spans
// many chunks, so each is translated on its first dispatch.
// Larger than benchN so each routine dispatch spans many 4096-element
// chunks.
func BenchmarkSWE_ExecWorkers(b *testing.B) {
	src := workload.SWE(512, benchSteps)
	comp, err := Compile("swe.f90", src, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(name("workers", w), func(b *testing.B) {
			var last *cm2.Result
			for i := 0; i < b.N; i++ {
				res, err := comp.Run(context.Background(), &cm2.Control{ExecWorkers: w})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.GFLOPS(), "gflops-modeled")
			b.ReportMetric(last.TotalCycles(), "cycles-modeled")
		})
	}
}

// TestE1PaperScale reproduces §6 at the calibration size and asserts the
// paper's shape: F90-Y > CMF > *Lisp, each within 10% of the published
// number.
func TestE1PaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1024x1024 SWE run")
	}
	const n, steps = 1024, 2
	src := workload.SWE(n, steps)

	_, sl := starlisp.RunSWE(n, steps, starlisp.DefaultModel)
	slGF := sl.GFLOPS(starlisp.DefaultModel.ClockHz)

	cmfRes := compileRun(t, src, CMFConfig())
	res := compileRun(t, src, DefaultConfig())

	within := func(got, want float64) bool { return got > 0.9*want && got < 1.1*want }
	if !within(slGF, 1.89) {
		t.Errorf("*Lisp = %.2f GF, paper 1.89", slGF)
	}
	if !within(cmfRes.GFLOPS(), 2.79) {
		t.Errorf("CMF = %.2f GF, paper 2.79", cmfRes.GFLOPS())
	}
	if !within(res.GFLOPS(), 2.99) {
		t.Errorf("F90-Y = %.2f GF, paper 2.99", res.GFLOPS())
	}
	if !(res.GFLOPS() > cmfRes.GFLOPS() && cmfRes.GFLOPS() > slGF) {
		t.Errorf("ordering violated: %.2f / %.2f / %.2f", res.GFLOPS(), cmfRes.GFLOPS(), slGF)
	}
}

// TestSWEPerformanceShape checks the §6 qualitative claim inside the
// compiled path: the optimized compiler spends fewer total cycles than the
// per-statement (CMF-like) configuration on the same SWE run.
func TestSWEPerformanceShape(t *testing.T) {
	src := workload.SWE(64, 2)
	full, cmfLike := compileRun(t, src, DefaultConfig()), compileRun(t, src, CMFConfig())
	if full.TotalCycles() >= cmfLike.TotalCycles() {
		t.Fatalf("blocking did not pay: %v >= %v cycles", full.TotalCycles(), cmfLike.TotalCycles())
	}
	if full.NodeCalls >= cmfLike.NodeCalls {
		t.Fatalf("blocking did not reduce node calls: %d vs %d", full.NodeCalls, cmfLike.NodeCalls)
	}
	if full.GFLOPS() <= cmfLike.GFLOPS() {
		t.Fatalf("GFLOPS: full %v <= cmf %v", full.GFLOPS(), cmfLike.GFLOPS())
	}
}

// TestCMFSlowerThanF90YOnSWE is the §6 ordering at a moderate problem
// size.
func TestCMFSlowerThanF90YOnSWE(t *testing.T) {
	src := workload.SWE(128, 2)
	cmf, f90y := compileRun(t, src, CMFConfig()), compileRun(t, src, DefaultConfig())
	if cmf.NodeCalls == 0 || cmf.GFLOPS() <= 0 || cmf.GFLOPS() >= f90y.GFLOPS() {
		t.Fatalf("CMF %d node calls at %.2f GF, F90-Y %.2f GF", cmf.NodeCalls, cmf.GFLOPS(), f90y.GFLOPS())
	}
}

// ---- E2: Fig. 9 domain blocking ----

func BenchmarkFig9_Naive(b *testing.B) {
	src := workload.Fig9(64)
	cfg := CMFConfig()
	var last *cm2.Result
	for i := 0; i < b.N; i++ {
		last = compileRun(b, src, cfg)
	}
	b.ReportMetric(float64(last.NodeCalls), "node-calls")
	b.ReportMetric(last.TotalCycles(), "cycles-modeled")
}

func BenchmarkFig9_Blocked(b *testing.B) {
	src := workload.Fig9(64)
	var last *cm2.Result
	for i := 0; i < b.N; i++ {
		last = compileRun(b, src, DefaultConfig())
	}
	b.ReportMetric(float64(last.NodeCalls), "node-calls")
	b.ReportMetric(last.TotalCycles(), "cycles-modeled")
}

// ---- E3: Fig. 10 masked-assignment blocking ----

func BenchmarkFig10_Unblocked(b *testing.B) {
	src := workload.Fig10(32)
	cfg := CMFConfig()
	var last *cm2.Result
	for i := 0; i < b.N; i++ {
		last = compileRun(b, src, cfg)
	}
	b.ReportMetric(float64(last.NodeCalls), "node-calls")
	b.ReportMetric(last.TotalCycles(), "cycles-modeled")
}

func BenchmarkFig10_Blocked(b *testing.B) {
	src := workload.Fig10(32)
	var last *cm2.Result
	for i := 0; i < b.N; i++ {
		last = compileRun(b, src, DefaultConfig())
	}
	b.ReportMetric(float64(last.NodeCalls), "node-calls")
	b.ReportMetric(last.TotalCycles(), "cycles-modeled")
}

// ---- E4: Fig. 11 partition structure ----

func BenchmarkFig11_Naive(b *testing.B) {
	src := workload.Fig11(64, 16)
	cfg := CMFConfig()
	var routines int
	for i := 0; i < b.N; i++ {
		comp, err := Compile("fig11.f90", src, cfg)
		if err != nil {
			b.Fatal(err)
		}
		routines = comp.PartStats.NodeRoutines
	}
	b.ReportMetric(float64(routines), "node-routines")
}

func BenchmarkFig11_Blocked(b *testing.B) {
	src := workload.Fig11(64, 16)
	var routines, hoisted int
	for i := 0; i < b.N; i++ {
		comp, err := Compile("fig11.f90", src, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		routines = comp.PartStats.NodeRoutines
		hoisted = comp.OptStats.HoistedComms
	}
	b.ReportMetric(float64(routines), "node-routines")
	b.ReportMetric(float64(hoisted), "comms-hoisted")
}

// ---- E5: Fig. 12 naive vs optimized PEAC ----

func fig12Routine(b *testing.B, peOpts pe.Options) *peac.Routine {
	b.Helper()
	comp, err := Compile("fig12.f90", workload.Fig12(64),
		Config{Opt: CMFConfig().Opt, PE: peOpts})
	if err != nil {
		b.Fatal(err)
	}
	var best *peac.Routine
	for _, r := range comp.Program.Routines {
		if best == nil || r.InstrCount() > best.InstrCount() {
			best = r
		}
	}
	return best
}

func BenchmarkFig12_NaivePEAC(b *testing.B) {
	var r *peac.Routine
	for i := 0; i < b.N; i++ {
		r = fig12Routine(b, pe.Naive)
	}
	b.ReportMetric(float64(r.InstrCount()), "instrs")
	b.ReportMetric(float64(peac.DefaultCost.BodyCycles(r.Body)), "cycles/iter")
}

func BenchmarkFig12_OptimizedPEAC(b *testing.B) {
	var r *peac.Routine
	for i := 0; i < b.N; i++ {
		r = fig12Routine(b, pe.Optimized)
	}
	b.ReportMetric(float64(r.InstrCount()), "instrs")
	b.ReportMetric(float64(r.IssueSlots()), "issue-slots")
	b.ReportMetric(float64(peac.DefaultCost.BodyCycles(r.Body)), "cycles/iter")
}

// ---- E6: §5.2 spill pressure ----

func BenchmarkSpillPressure(b *testing.B) {
	for _, terms := range []int{4, 8, 12, 16} {
		b.Run(name("terms", terms), func(b *testing.B) {
			src := workload.SpillKernel(1024, terms)
			var r *peac.Routine
			for i := 0; i < b.N; i++ {
				comp, err := Compile("spill.f90", src, DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				r = nil
				for _, rt := range comp.Program.Routines {
					if r == nil || rt.InstrCount() > r.InstrCount() {
						r = rt
					}
				}
			}
			b.ReportMetric(float64(r.SpillSlots), "spill-slots")
			b.ReportMetric(float64(peac.DefaultCost.BodyCycles(r.Body)), "cycles/iter")
		})
	}
}

// ---- E7: §5.3.1 CM-5 retarget ----

func BenchmarkSWE_CM5(b *testing.B) {
	src := workload.SWE(benchN, benchSteps)
	comp, err := Compile("swe.f90", src, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var last *cm2.Result
	for i := 0; i < b.N; i++ {
		res, err := cm5.Default().RunCtx(context.Background(), comp.Program, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.GFLOPS(), "gflops-modeled")
	b.ReportMetric(last.Split.Setup, "sparc-cycles")
	b.ReportMetric(last.Split.Vector, "vu-cycles")
}

// ---- A1: blocking ablation on SWE ----

func BenchmarkAblationBlocking(b *testing.B) {
	src := workload.SWE(benchN, benchSteps)
	for _, v := range []struct {
		name string
		cfg  Config
	}{
		{"off", CMFConfig()},
		{"on", DefaultConfig()},
	} {
		b.Run(v.name, func(b *testing.B) {
			var last *cm2.Result
			for i := 0; i < b.N; i++ {
				last = compileRun(b, src, v.cfg)
			}
			b.ReportMetric(last.GFLOPS(), "gflops-modeled")
			b.ReportMetric(float64(last.NodeCalls), "node-calls")
		})
	}
}

// ---- A2: PE optimization ablations on the Fig. 12 block ----

func BenchmarkAblationPE(b *testing.B) {
	variants := []struct {
		name string
		opts pe.Options
	}{
		{"none", pe.Naive},
		{"cse", pe.Options{CSE: true}},
		{"cse+chain", pe.Options{CSE: true, Chaining: true}},
		{"cse+chain+fmadd", pe.Options{CSE: true, Chaining: true, Fmadd: true}},
		{"all", pe.Optimized},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var r *peac.Routine
			for i := 0; i < b.N; i++ {
				r = fig12Routine(b, v.opts)
			}
			b.ReportMetric(float64(r.InstrCount()), "instrs")
			b.ReportMetric(float64(peac.DefaultCost.BodyCycles(r.Body)), "cycles/iter")
		})
	}
}

// ---- A3: virtual-processor-ratio sweep ----

func BenchmarkVPRatio(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		b.Run(name("n", n), func(b *testing.B) {
			src := workload.SWE(n, 1)
			var last *cm2.Result
			for i := 0; i < b.N; i++ {
				last = compileRun(b, src, DefaultConfig())
			}
			b.ReportMetric(last.GFLOPS(), "gflops-modeled")
			b.ReportMetric(float64(n*n)/2048.0, "vp-ratio")
		})
	}
}

func name(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// ---- A4: register-file ablation (§5.2: "vector registers tend to be the
// limiting resource") ----

func BenchmarkRegisterFile(b *testing.B) {
	src := workload.SpillKernel(1024, 12)
	for _, k := range []int{4, 6, 8, 12, 16} {
		b.Run(name("vregs", k), func(b *testing.B) {
			peOpts := pe.Optimized
			peOpts.VRegs = k
			var r *peac.Routine
			for i := 0; i < b.N; i++ {
				comp, err := Compile("spill.f90", src, Config{Opt: opt.Default, PE: peOpts})
				if err != nil {
					b.Fatal(err)
				}
				r = nil
				for _, rt := range comp.Program.Routines {
					if r == nil || rt.InstrCount() > r.InstrCount() {
						r = rt
					}
				}
			}
			b.ReportMetric(float64(r.SpillSlots), "spill-slots")
			b.ReportMetric(float64(peac.DefaultCost.BodyCycles(r.Body)), "cycles/iter")
		})
	}
}

// ---- C1: the compile path's ledger ----

// BenchmarkCompile times source → partitioned program and reports, next
// to allocs/op, each phase's share in ms/op from the compile's own spans
// (pe-codegen is nested in partition and subtracted from it). The
// programs are the repository benchmark's compile_big and serve_cold
// shapes, and SWE as the real-program control.
func BenchmarkCompile(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"big4000", workload.Statements(16, 4000)},
		{"cold300", workload.Statements(16, 300)},
		{"swe", workload.SWE(benchN, benchSteps)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			phase := map[string]time.Duration{}
			for i := 0; i < b.N; i++ {
				col := obs.NewCollector()
				cfg := DefaultConfig()
				cfg.Obs = col
				if _, err := Compile("bench.f90", c.src, cfg); err != nil {
					b.Fatal(err)
				}
				for _, s := range col.Spans() {
					name, _, _ := strings.Cut(s.Name, "/")
					phase[name] += s.Dur()
				}
			}
			phase["partition"] -= phase["pe-codegen"]
			for name, d := range phase {
				b.ReportMetric(float64(d.Microseconds())/1e3/float64(b.N), name+"-ms/op")
			}
		})
	}
}
