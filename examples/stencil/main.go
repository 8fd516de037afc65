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
	"strings"

	"f90y"
	"f90y/internal/opt"
	"f90y/internal/oracle"
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

	// The full configuration is verified: the reference interpreter and
	// every machine must agree bit for bit.
	rep, err := oracle.Verify("stencil.f90", src, oracle.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nverify: %d values bit-identical across %s\n", rep.Elems, strings.Join(rep.Backends, ", "))
}
