package cm5

import (
	"context"
	"testing"

	"f90y/internal/cm2"
	"f90y/internal/lower"
	"f90y/internal/opt"
	"f90y/internal/parser"
	"f90y/internal/partition"
	"f90y/internal/pe"
	"f90y/internal/workload"
)

func TestSameFrontEndBothTargets(t *testing.T) {
	src := workload.SWE(16, 2)
	tree, _ := parser.Parse("swe.f90", src)
	mod, err := lower.Lower(tree)
	if err != nil {
		t.Fatal(err)
	}
	omod, _ := opt.OptimizeObs(mod, opt.Default, nil)
	prog, _, err := partition.Compile(omod, pe.Optimized)
	if err != nil {
		t.Fatal(err)
	}

	cm2Res, err := cm2.Default().RunCtx(context.Background(), prog, nil, nil, nil)
	if err != nil {
		t.Fatalf("cm2: %v", err)
	}
	cm5Res, err := Default().RunCtx(context.Background(), prog, nil, nil)
	if err != nil {
		t.Fatalf("cm5: %v", err)
	}
	// Identical partitioned program: identical node-call counts.
	if cm2Res.NodeCalls != cm5Res.NodeCalls {
		t.Fatalf("node calls differ: %d vs %d", cm2Res.NodeCalls, cm5Res.NodeCalls)
	}
	// Both targets compute identical values.
	for name, a2 := range cm2Res.Store.Arrays {
		a5 := cm5Res.Store.Arrays[name]
		for i := range a2.Data {
			if a2.Data[i] != a5.Data[i] {
				t.Fatalf("%s[%d]: cm2 %v, cm5 %v", name, i, a2.Data[i], a5.Data[i])
			}
		}
	}
}

func TestCM5ThreeWaySplitAccounting(t *testing.T) {
	src := workload.SWE(32, 2)
	tree, _ := parser.Parse("swe.f90", src)
	mod, _ := lower.Lower(tree)
	omod, _ := opt.OptimizeObs(mod, opt.Default, nil)
	prog, _, _ := partition.Compile(omod, pe.Optimized)
	res, err := Default().RunCtx(context.Background(), prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := res.Split
	if sp.Setup <= 0 || sp.Vector <= 0 || res.HostCycles <= 0 {
		t.Fatalf("three-way split not accounted: %+v", res)
	}
	if res.PECycles != sp.Vector+sp.Setup {
		t.Fatalf("PECycles %v != VU %v + SPARC %v", res.PECycles, sp.Vector, sp.Setup)
	}
}

func TestCM5OutperformsCM2(t *testing.T) {
	// The newer machine with four vector units per node and a faster
	// clock must sustain a higher modeled rate on the same program.
	src := workload.SWE(128, 2)
	tree, _ := parser.Parse("swe.f90", src)
	mod, _ := lower.Lower(tree)
	omod, _ := opt.OptimizeObs(mod, opt.Default, nil)
	prog, _, _ := partition.Compile(omod, pe.Optimized)

	r2, err := cm2.Default().RunCtx(context.Background(), prog, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := Default().RunCtx(context.Background(), prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r5.GFLOPS() <= r2.GFLOPS() {
		t.Fatalf("CM-5 %v GF <= CM-2 %v GF", r5.GFLOPS(), r2.GFLOPS())
	}
}
