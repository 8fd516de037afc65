package f90y_test

// JIT smoke: the tier-1 gate for the compiled executor. Each kernel is
// compiled once and run under the interpreter and the compiled engine;
// stores must be bit-identical (Float64bits), PRINT output equal, and
// every modeled cycle total unchanged — the JIT is a wall-clock-only
// engine swap. The SWE kernel additionally goes through the full
// three-way differential oracle with the compiled engine enabled.
// (External test package: internal/oracle imports f90y.)

import (
	"context"
	"math"
	"reflect"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/oracle"
	"f90y/internal/workload"
)

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
		comp, err := f90y.Compile(name, src, f90y.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		ref, err := comp.Run(context.Background(), nil)
		if err != nil {
			t.Fatalf("%s: interpreter run: %v", name, err)
		}
		res, err := comp.Run(context.Background(), &cm2.Control{ExecJIT: true})
		if err != nil {
			t.Fatalf("%s: jit run: %v", name, err)
		}

		for arr, want := range ref.Store.Arrays {
			got := res.Store.Arrays[arr]
			if got == nil {
				t.Fatalf("%s: jit run lost array %q", name, arr)
			}
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s: %s[%d] = %v, want %v (jit not bit-exact)",
						name, arr, i, got.Data[i], want.Data[i])
				}
			}
		}
		if !reflect.DeepEqual(res.Store.Scalars, ref.Store.Scalars) {
			t.Errorf("%s: scalars differ: %v vs %v", name, res.Store.Scalars, ref.Store.Scalars)
		}
		if !reflect.DeepEqual(res.Output, ref.Output) {
			t.Errorf("%s: PRINT output differs:\n jit: %q\n ref: %q", name, res.Output, ref.Output)
		}

		// The modeled planes are computed before dispatch; any drift here
		// means the JIT leaked into the cost model.
		if res.PECycles != ref.PECycles || res.CommCycles != ref.CommCycles ||
			res.HostCycles != ref.HostCycles || res.TotalCycles() != ref.TotalCycles() {
			t.Errorf("%s: modeled cycles differ: jit (pe=%v comm=%v host=%v) vs (pe=%v comm=%v host=%v)",
				name, res.PECycles, res.CommCycles, res.HostCycles,
				ref.PECycles, ref.CommCycles, ref.HostCycles)
		}
		if res.Flops != ref.Flops || res.NodeCalls != ref.NodeCalls {
			t.Errorf("%s: modeled work differs: jit (flops=%d calls=%d) vs (flops=%d calls=%d)",
				name, res.Flops, res.NodeCalls, ref.Flops, ref.NodeCalls)
		}
		if !reflect.DeepEqual(res.PEClassCycles, ref.PEClassCycles) {
			t.Errorf("%s: per-class PE cycle attribution differs: %v vs %v",
				name, res.PEClassCycles, ref.PEClassCycles)
		}
	}
}

// TestJITSmokeOracle runs the SWE kernel through the three-way
// differential oracle (interp vs cm2 vs cm5) with the compiled engine
// enabled on both backends — the gate the ISSUE requires before the
// JIT is trusted anywhere.
func TestJITSmokeOracle(t *testing.T) {
	for _, workers := range []int{0, 4} {
		rep, err := oracle.Verify("swe.f90", workload.SWE(70, 2),
			oracle.Options{ExecJIT: true, ExecWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Elems == 0 {
			t.Fatalf("workers=%d: oracle compared no elements", workers)
		}
	}
}
