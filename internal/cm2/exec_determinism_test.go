package cm2_test

// TestExecParallelDeterminism is the race-enabled determinism gate for
// the sharded executor (wired into `make check`): a full compiled run —
// fault injection and the numeric record plane active — must produce
// bit-identical stores, identical output, identical cycle totals, and
// identical fault and numeric tallies for every -exec-workers value.

import (
	"context"
	"math"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/faults"
	"f90y/internal/rt"
	"f90y/internal/workload"
)

func TestExecParallelDeterminism(t *testing.T) {
	src := workload.SWE(48, 2)
	comp, err := f90y.Compile("swe.f90", src, f90y.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.ParseSpec("seed=7,pe=0.02,drop=0.005")
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) *cm2.Result {
		t.Helper()
		res, err := comp.Run(context.Background(), &cm2.Control{
			Faults:      faults.New(plan, nil),
			Numeric:     &rt.Numeric{Mode: rt.NumericRecord},
			ExecWorkers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}

	ref := run(1)
	for _, workers := range []int{4, -1} {
		got := run(workers)

		for name, want := range ref.Store.Arrays {
			g := got.Store.Arrays[name]
			if g == nil {
				t.Fatalf("workers=%d: array %q missing", workers, name)
			}
			for i := range want.Data {
				if math.Float64bits(g.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("workers=%d: %s[%d] = %v, want %v (not bit-exact)",
						workers, name, i, g.Data[i], want.Data[i])
				}
			}
		}
		for name, want := range ref.Store.Scalars {
			if g := got.Store.Scalars[name]; math.Float64bits(g) != math.Float64bits(want) {
				t.Errorf("workers=%d: scalar %s = %v, want %v", workers, name, g, want)
			}
		}
		if len(got.Output) != len(ref.Output) {
			t.Fatalf("workers=%d: %d output lines, want %d", workers, len(got.Output), len(ref.Output))
		}
		for i := range ref.Output {
			if got.Output[i] != ref.Output[i] {
				t.Errorf("workers=%d: output[%d] = %q, want %q", workers, i, got.Output[i], ref.Output[i])
			}
		}

		if got.PECycles != ref.PECycles || got.CommCycles != ref.CommCycles || got.HostCycles != ref.HostCycles {
			t.Errorf("workers=%d: cycles (pe %v, comm %v, host %v), want (pe %v, comm %v, host %v)",
				workers, got.PECycles, got.CommCycles, got.HostCycles,
				ref.PECycles, ref.CommCycles, ref.HostCycles)
		}
		if got.Flops != ref.Flops || got.GFLOPS() != ref.GFLOPS() {
			t.Errorf("workers=%d: flops %d / %v GFLOPS, want %d / %v",
				workers, got.Flops, got.GFLOPS(), ref.Flops, ref.GFLOPS())
		}

		if got.Faults == nil || ref.Faults == nil {
			t.Fatalf("workers=%d: missing fault stats", workers)
		}
		if got.Faults.Retries != ref.Faults.Retries || got.Faults.RetryCycles != ref.Faults.RetryCycles {
			t.Errorf("workers=%d: fault recovery (retries %d, cycles %v), want (%d, %v)",
				workers, got.Faults.Retries, got.Faults.RetryCycles, ref.Faults.Retries, ref.Faults.RetryCycles)
		}
		for kind, n := range ref.Faults.Injected {
			if got.Faults.Injected[kind] != n {
				t.Errorf("workers=%d: injected[%s] = %d, want %d", workers, kind, got.Faults.Injected[kind], n)
			}
		}

		if got.Numeric.Total() != ref.Numeric.Total() {
			t.Errorf("workers=%d: numeric tally %d, want %d", workers, got.Numeric.Total(), ref.Numeric.Total())
		}
		for cl, n := range ref.Numeric.NaN {
			if got.Numeric.NaN[cl] != n {
				t.Errorf("workers=%d: NaN[%s] = %d, want %d", workers, cl, got.Numeric.NaN[cl], n)
			}
		}
		for cl, n := range ref.Numeric.Inf {
			if got.Numeric.Inf[cl] != n {
				t.Errorf("workers=%d: Inf[%s] = %d, want %d", workers, cl, got.Numeric.Inf[cl], n)
			}
		}
	}
}
