package f90y

// Tests for the observability layer's pipeline integration: every phase
// emits exactly one span, and the per-class cycle attribution sums
// exactly to the machine totals (the property the §6-style breakdown
// tables rest on).

import (
	"context"
	"math"
	"strings"
	"testing"

	"f90y/internal/hostvm"
	"f90y/internal/obs"
	"f90y/internal/rt"
	"f90y/internal/workload"
)

func TestPipelineEmitsOneSpanPerPhase(t *testing.T) {
	col := obs.NewCollector()
	cfg := DefaultConfig()
	cfg.Obs = col
	comp, err := Compile("swe.f90", workload.SWE(64, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	for _, s := range col.Spans() {
		counts[s.Name]++
		if s.End == 0 {
			t.Errorf("span %q left open", s.Name)
		}
	}
	for _, phase := range []string{
		"lex", "parse", "lower",
		"opt/pad-sections", "opt/block-domains",
		"partition", "exec",
	} {
		if counts[phase] != 1 {
			t.Errorf("phase %q emitted %d spans, want exactly 1", phase, counts[phase])
		}
	}
	// One pe-codegen span per compiled node routine.
	if got, want := counts["pe-codegen"], comp.PartStats.NodeRoutines+comp.PartStats.Fallbacks; got != want {
		t.Errorf("pe-codegen spans = %d, want %d (routines+fallbacks)", got, want)
	}

	// Phase statistics arrive as counters.
	c := col.Counters()
	if c["partition/node-routines"] != float64(comp.PartStats.NodeRoutines) {
		t.Errorf("partition/node-routines counter = %v, stats say %d",
			c["partition/node-routines"], comp.PartStats.NodeRoutines)
	}
	if c["opt/fused-moves"] != float64(comp.OptStats.FusedMoves) {
		t.Errorf("opt/fused-moves counter = %v, stats say %d",
			c["opt/fused-moves"], comp.OptStats.FusedMoves)
	}
	if c["lex/tokens"] <= 0 {
		t.Errorf("lex/tokens counter missing")
	}
}

func TestCycleAttributionSumsExactly(t *testing.T) {
	col := obs.NewCollector()
	cfg := DefaultConfig()
	cfg.Obs = col
	comp, err := Compile("swe.f90", workload.SWE(128, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := comp.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	sum := func(m map[string]float64) float64 {
		s := 0.0
		for _, v := range m {
			s += v
		}
		return s
	}
	if got := sum(res.PEClassCycles); got != res.PECycles {
		t.Errorf("PE class cycles sum %v != PECycles %v", got, res.PECycles)
	}
	if got := sum(res.PERoutineCycles); got != res.PECycles {
		t.Errorf("PE routine cycles sum %v != PECycles %v", got, res.PECycles)
	}
	if got := sum(res.CommClassCycles); got != res.CommCycles {
		t.Errorf("comm class cycles sum %v != CommCycles %v", got, res.CommCycles)
	}
	if got := sum(res.HostClassCycles); got != res.HostCycles {
		t.Errorf("host class cycles sum %v != HostCycles %v", got, res.HostCycles)
	}
	if res.PECycles <= 0 || res.CommCycles <= 0 || res.HostCycles <= 0 {
		t.Fatalf("degenerate run: pe=%v comm=%v host=%v",
			res.PECycles, res.CommCycles, res.HostCycles)
	}

	// The emitted counters agree with the result.
	c := col.Counters()
	if c["exec/pe-cycles"] != res.PECycles {
		t.Errorf("exec/pe-cycles counter %v != %v", c["exec/pe-cycles"], res.PECycles)
	}
	classSum := 0.0
	for _, cl := range []string{"vector-arith", "divide", "sqrt", "transcend", "load-store", "spill", "loop"} {
		classSum += c["exec/pe/"+cl]
	}
	if classSum != res.PECycles {
		t.Errorf("exec/pe/* counters sum %v != PECycles %v", classSum, res.PECycles)
	}
	commSum := 0.0
	for _, cl := range rt.CommClasses {
		commSum += c["exec/comm/"+cl]
	}
	if commSum != res.CommCycles {
		t.Errorf("exec/comm/* counters sum %v != CommCycles %v", commSum, res.CommCycles)
	}
	hostSum := 0.0
	for _, cl := range hostvm.HostClasses {
		hostSum += c["exec/host/"+cl]
	}
	if hostSum != res.HostCycles {
		t.Errorf("exec/host/* counters sum %v != HostCycles %v", hostSum, res.HostCycles)
	}

	// Attribution never invents or loses work: the SWE kernel must show
	// divides and memory traffic, and the dominant class is vector
	// arithmetic or memory, not loop overhead.
	if res.PEClassCycles["divide"] == 0 {
		t.Errorf("SWE kernel reported zero divide cycles")
	}
	if res.PEClassCycles["load-store"] == 0 {
		t.Errorf("SWE kernel reported zero load/store cycles")
	}
	if res.PEClassCycles["loop"] > res.PEClassCycles["vector-arith"] {
		t.Errorf("loop overhead %v exceeds vector arithmetic %v",
			res.PEClassCycles["loop"], res.PEClassCycles["vector-arith"])
	}
}

// TestRecorderOffIsBitIdentical guards the no-op hot path: a run with a
// nil recorder must produce the identical modeled result as a recorded
// run (recording is observation, never perturbation).
func TestRecorderOffIsBitIdentical(t *testing.T) {
	src := workload.SWE(64, 2)

	plain, err := Compile("swe.f90", src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	resPlain, err := plain.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Obs = obs.NewCollector()
	rec, err := Compile("swe.f90", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resRec, err := rec.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	if resPlain.PECycles != resRec.PECycles ||
		resPlain.CommCycles != resRec.CommCycles ||
		resPlain.HostCycles != resRec.HostCycles ||
		resPlain.Flops != resRec.Flops {
		t.Errorf("recorded run diverged: %+v vs %+v", resPlain, resRec)
	}
	if math.Abs(resPlain.GFLOPS()-resRec.GFLOPS()) != 0 {
		t.Errorf("gflops diverged")
	}
}

// TestCommOpCounters: a recorded run says which transfers left the NEWS
// grid, one rt/comm/<op>/<class> count per transfer. The 16-stage FFT
// butterfly under the all-BLOCK default makes 32 shifts; the long
// strides of the late stages are routed, and the counters say so
// without anyone reading rt/comm.go.
func TestCommOpCounters(t *testing.T) {
	col := obs.NewCollector()
	cfg := DefaultConfig()
	cfg.Obs = col
	comp, err := Compile("fft.f90", workload.LayoutFFT(65536, 16, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := comp.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := col.Counters()
	grid, router := c["rt/comm/shift/grid"], c["rt/comm/shift/router"]
	if grid != 10 || router != 22 {
		t.Errorf("rt/comm/shift/{grid,router} = %v, %v; want 10 on the grid and 22 routed", grid, router)
	}
	total := 0.0
	for name, v := range c {
		if strings.HasPrefix(name, "rt/comm/") && name != "rt/comm/parallel" {
			total += v
		}
	}
	if total != float64(res.CommCalls) {
		t.Errorf("rt/comm/<op>/<class> counts sum to %v, the run made %d comm calls", total, res.CommCalls)
	}
	// A serial run (a nil Control) fans nothing out, and every shift
	// copies into a distinct destination or binds a view: nothing staged.
	if p, s := c["rt/comm/parallel"], c["exec/copy-bytes/comm-stage"]; p != 0 || s != 0 {
		t.Errorf("rt/comm/parallel = %v, exec/copy-bytes/comm-stage = %v; want 0 and 0", p, s)
	}
}
