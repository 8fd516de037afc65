package f90y_test

// JIT smoke: the tier-1 gate for the executor. Each kernel is compiled
// afresh and run under the reference evaluator and under the translated
// form (production), across worker counts; stores must be bit-identical
// (Float64bits), PRINT output equal, and every modeled cycle total
// unchanged: how a routine is evaluated is wall-clock only. The SWE
// kernel additionally goes through the full three-way differential
// oracle under each.
// (External test package: internal/oracle imports f90y.)

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/oracle"
	"f90y/internal/workload"
)

// engineSelections are the two evaluators the differential gates cover;
// cm2.TestOnlyEngine pins one process-wide, so no test that uses them
// runs in parallel.
var engineSelections = []struct {
	name string
	e    cm2.Engine
}{
	{"reference", cm2.EngineReference},
	{"translated", cm2.EngineTranslated},
}

// withEngine runs f with the engine choice pinned.
func withEngine(e cm2.Engine, f func()) {
	cm2.TestOnlyEngine = e
	defer func() { cm2.TestOnlyEngine = cm2.EngineTranslated }()
	f()
}

func jitSmokeKernels() map[string]string {
	return map[string]string{
		"swe.f90":       workload.SWE(48, 2),
		"transpose.f90": workload.LayoutTranspose(24, 2, nil),
		"fft.f90":       workload.LayoutFFT(32, 4, nil),
		"gather.f90":    workload.LayoutGather(32, 2, nil),
	}
}

// TestJITSmoke asserts engine equivalence kernel by kernel.
func TestJITSmoke(t *testing.T) {
	for name, src := range jitSmokeKernels() {
		run := func(e cm2.Engine, workers int) *cm2.Result {
			t.Helper()
			// A fresh compilation per run, so every run translates its
			// routines itself.
			comp, err := f90y.Compile(name, src, f90y.DefaultConfig())
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			var res *cm2.Result
			withEngine(e, func() { res, err = comp.Run(context.Background(), &cm2.Control{ExecWorkers: workers}) })
			if err != nil {
				t.Fatalf("%s: engine %d workers %d: %v", name, e, workers, err)
			}
			return res
		}
		ref := run(cm2.EngineReference, 1)
		for _, sel := range engineSelections {
			for _, workers := range []int{1, 2, -1} {
				res := run(sel.e, workers)
				what := fmt.Sprintf("%s: %s workers=%d", name, sel.name, workers)

				for arr, want := range ref.Store.Arrays {
					got := res.Store.Arrays[arr]
					if got == nil {
						t.Fatalf("%s: lost array %q", what, arr)
					}
					for i := range want.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("%s: %s[%d] = %v, want %v (not bit-exact)",
								what, arr, i, got.Data[i], want.Data[i])
						}
					}
				}
				if !reflect.DeepEqual(res.Store.Scalars, ref.Store.Scalars) {
					t.Errorf("%s: scalars differ: %v vs %v", what, res.Store.Scalars, ref.Store.Scalars)
				}
				if !reflect.DeepEqual(res.Output, ref.Output) {
					t.Errorf("%s: PRINT output differs:\n got: %q\n ref: %q", what, res.Output, ref.Output)
				}

				// The modeled planes are computed before dispatch; any drift
				// here means the engine leaked into the cost model.
				if res.PECycles != ref.PECycles || res.CommCycles != ref.CommCycles ||
					res.HostCycles != ref.HostCycles || res.TotalCycles() != ref.TotalCycles() {
					t.Errorf("%s: modeled cycles differ: (pe=%v comm=%v host=%v) vs reference (pe=%v comm=%v host=%v)",
						what, res.PECycles, res.CommCycles, res.HostCycles,
						ref.PECycles, ref.CommCycles, ref.HostCycles)
				}
				if res.Flops != ref.Flops || res.NodeCalls != ref.NodeCalls {
					t.Errorf("%s: modeled work differs: (flops=%d calls=%d) vs reference (flops=%d calls=%d)",
						what, res.Flops, res.NodeCalls, ref.Flops, ref.NodeCalls)
				}
				if !reflect.DeepEqual(res.PEClassCycles, ref.PEClassCycles) {
					t.Errorf("%s: per-class PE cycle attribution differs: %v vs %v",
						what, res.PEClassCycles, ref.PEClassCycles)
				}
			}
		}
	}
}

// TestJITSmokeOracle runs the SWE kernel through the three-way
// differential oracle (interp vs cm2 vs cm5) under each engine
// selection on both backends — the gate that lets the translated form
// be trusted everywhere.
func TestJITSmokeOracle(t *testing.T) {
	for _, sel := range engineSelections {
		for _, workers := range []int{0, 4} {
			var rep *oracle.Report
			var err error
			withEngine(sel.e, func() {
				rep, err = oracle.Verify("swe.f90", workload.SWE(70, 2), oracle.Options{ExecWorkers: workers})
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", sel.name, workers, err)
			}
			if rep.Elems == 0 {
				t.Fatalf("%s workers=%d: oracle compared no elements", sel.name, workers)
			}
		}
	}
}
