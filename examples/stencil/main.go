// Stencil: a nine-point convolution of the kind §1 says the CM Fortran
// machine model handled poorly ("the sort of fine-grain processing users
// perform using stencils"). The example shows how Fortran-90-Y's phase
// analysis turns the stencil into clustered grid communications followed
// by one fused computation block per sweep, and compares PE-optimization
// ablations on the generated node code.
//
// Run with:
//
//	go run ./examples/stencil [-n 128] [-iters 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"f90y"
	"f90y/internal/opt"
	"f90y/internal/pe"
	"f90y/internal/workload"
)

func main() {
	n := flag.Int("n", 128, "grid edge")
	iters := flag.Int("iters", 4, "sweeps")
	flag.Parse()

	src := workload.Stencil(*n, *iters)

	type variant struct {
		name string
		cfg  f90y.Config
	}
	variants := []variant{
		{"naive PE, no blocking", f90y.Config{Opt: opt.Options{PadSections: true}, PE: pe.Naive}},
		{"optimized PE, no blocking", f90y.Config{Opt: opt.Options{PadSections: true}, PE: pe.Optimized}},
		{"full Fortran-90-Y", f90y.DefaultConfig()},
	}

	fmt.Printf("nine-point stencil, %dx%d grid, %d sweeps\n\n", *n, *n, *iters)
	fmt.Printf("%-28s %12s %12s %12s\n", "configuration", "node calls", "cycles", "GFLOPS")
	var first *float64
	for _, v := range variants {
		comp, err := f90y.Compile("stencil.f90", src, v.cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := comp.Run(context.Background(), nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %12d %12.0f %12.2f\n", v.name, res.NodeCalls, res.TotalCycles(), res.GFLOPS())
		if first == nil {
			c := res.TotalCycles()
			first = &c
		} else if res.TotalCycles() > *first {
			log.Fatalf("%s got slower than the naive baseline", v.name)
		}
	}

	// The full configuration's result is verified against the oracle.
	comp, _ := f90y.Compile("stencil.f90", src, f90y.DefaultConfig())
	res, _ := comp.Run(context.Background(), nil)
	oracle, err := f90y.Interpret("stencil.f90", src)
	if err != nil {
		log.Fatal(err)
	}
	want := oracle.Array("grid")
	got := res.Store.Arrays["grid"]
	for i := range got.Data {
		if diff := got.Data[i] - want.F[i]; diff > 1e-9 || diff < -1e-9 {
			log.Fatalf("grid[%d]: compiled %v, oracle %v", i, got.Data[i], want.F[i])
		}
	}
	fmt.Printf("\nverify: all %d grid points match the reference interpreter\n", len(got.Data))
}
