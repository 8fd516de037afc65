// SWE: the paper's §6 benchmark — the shallow-water equations — compiled
// by Fortran-90-Y and executed on the simulated CM/2, alongside the two
// baselines of the evaluation: the hand-coded fieldwise *Lisp program and
// the CM Fortran v1.1 model.
//
// Run with:
//
//	go run ./examples/swe [-n 256] [-steps 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/cmf"
	"f90y/internal/starlisp"
	"f90y/internal/workload"
)

func main() {
	n := flag.Int("n", 256, "grid edge")
	steps := flag.Int("steps", 4, "time steps")
	flag.Parse()

	src := workload.SWE(*n, *steps)

	// Hand-coded *Lisp, fieldwise model.
	_, sl := starlisp.RunSWE(*n, *steps, starlisp.DefaultModel)

	// CM Fortran model: same back end, per-statement compilation.
	machine := cm2.Default()
	cmfRes, err := cmf.Run("swe.f90", src, machine)
	if err != nil {
		log.Fatal(err)
	}

	// Fortran-90-Y, full shape transformations.
	comp, err := f90y.Compile("swe.f90", src, f90y.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	res, err := comp.Run(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("shallow-water equations, %dx%d grid, %d steps, 2048 PEs @ 7 MHz\n\n", *n, *n, *steps)
	fmt.Printf("%-30s %10s    %s\n", "system", "modeled GF", "paper (§6)")
	fmt.Printf("%-30s %10.2f    1.89\n", "hand-coded *Lisp (fieldwise)", sl.GFLOPS(starlisp.DefaultModel.ClockHz))
	fmt.Printf("%-30s %10.2f    2.79\n", "CM Fortran v1.1 (model)", cmfRes.GFLOPS())
	fmt.Printf("%-30s %10.2f    2.99\n", "Fortran-90-Y", res.GFLOPS())

	fmt.Printf("\nFortran-90-Y detail: %d node routines (%d dispatches), %d communications\n",
		comp.PartStats.NodeRoutines, res.NodeCalls, res.CommCalls)
	fmt.Printf("optimizer: %d moves fused into blocks, %d communications hoisted\n",
		comp.OptStats.FusedMoves, comp.OptStats.HoistedComms)
	fmt.Printf("cycle split per step: PE %.0f, comm %.0f, host %.0f\n",
		res.PECycles/float64(*steps), res.CommCycles/float64(*steps), res.HostCycles/float64(*steps))
}
