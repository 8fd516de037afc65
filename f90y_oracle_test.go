package f90y_test

// FuzzOracle lives in the external test package: internal/oracle
// imports f90y, so an in-package fuzz target would be an import cycle.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"
	"time"

	"f90y"
	"f90y/internal/oracle"
	"f90y/internal/workload"
)

// FuzzOracle feeds fuzzer-generated programs through the differential
// check: any program the compiler accepts must produce agreeing results
// on the reference interpreter and both machine backends, under the
// executor's reference evaluator and its translated form — the fuzzer is
// part of the gate that keeps the two bit-exact. Inputs that fail to
// compile, exceed the cycle/step/size guards, or trip known
// semantic gaps between the backends are skipped; a genuine divergence
// or a compiler panic fails the run.
func FuzzOracle(f *testing.F) {
	f.Add(workload.SWE(8, 1))
	f.Add(workload.Fig9(8))
	f.Add(workload.Fig10(8))
	f.Add(workload.Stencil(8, 2))
	f.Add("program p\ninteger :: i\ni = 1\nprint *, i\nend program p\n")
	f.Add("program q\nreal :: a(4), b(4)\na = 2.0\nb = sqrt(a) + cshift(a, 1)\nprint *, sum(b)\nend program q\n")
	// Shift views: a shift amount and a boundary naming DO indexes (the
	// host VM resolves them), and — with the chains and the
	// self-assigning shift under testdata/fuzz/FuzzOracle — the shapes
	// partition's view analysis accepts and refuses.
	f.Add(workload.DoShift(8))
	f.Fuzz(func(t *testing.T, src string) {
		start := time.Now()
		defer func() {
			if d := time.Since(start); d > 2*time.Second {
				fmt.Fprintf(os.Stderr, "SLOW %v src=%q\n", d, src)
				t.Fatalf("slow exec: %v", d)
			}
		}()
		// Tight guards keep throughput up: an interpreter statement can
		// touch every lane of every array, so the step and element
		// limits multiply into the worst-case cost per exec. Every
		// engine selection must pass; divergence handling below applies
		// to whichever failed first.
		var rep *oracle.Report
		var err error
		for _, sel := range engineSelections {
			withEngine(sel.e, func() {
				rep, err = oracle.Verify("fuzz.f90", src, oracle.Options{
					MaxCycles:   2_000_000,
					InterpSteps: 20_000,
					MaxElems:    1 << 10,
				})
			})
			if err != nil {
				break
			}
		}
		if err == nil {
			return
		}
		var pe *f90y.PanicError
		if errors.As(err, &pe) {
			t.Fatalf("compiler panicked in phase %s: %v\n%s", pe.Phase, pe.Value, pe.Stack)
		}
		if !errors.Is(err, oracle.ErrDivergence) {
			return // compile/run/guard failures are not oracle findings
		}
		d := rep.Divergence
		// Known semantic gap, not a bug: the interpreter carries
		// integers as int64 while the compiled store truncates through
		// float64, so arithmetic past 2^53 (and overflow past 2^63)
		// legitimately differs. Skip integer divergences at magnitudes
		// where the representations part ways.
		if d != nil && d.Kind == "int" {
			const bound = float64(1 << 53)
			if a, err := strconv.ParseFloat(d.AVal, 64); err == nil && math.Abs(a) >= bound {
				t.Skip("integer magnitude beyond exact float64 range")
			}
			if b, err := strconv.ParseFloat(d.BVal, 64); err == nil && math.Abs(b) >= bound {
				t.Skip("integer magnitude beyond exact float64 range")
			}
		}
		t.Fatalf("differential divergence: %v", err)
	})
}
