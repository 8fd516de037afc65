// Quickstart: compile a small data-parallel Fortran 90 program with the
// Fortran-90-Y pipeline, run it on the simulated CM/2, and inspect both
// the program's output and the machine model's performance report.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"f90y"
)

// The §2.1 example from the paper: whole-array assignments replacing the
// Fortran 77 loop nest.
const source = `
program quickstart
integer k(128,64), l(128)
integer ksum
l = 6
k = 2*k + 5
k(32:64,:) = k(32:64,:)**2
ksum = sum(k)
print *, 'sum of k =', ksum
end program quickstart
`

func main() {
	comp, err := f90y.Compile("quickstart.f90", source, f90y.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// The compiler retains every intermediate artifact for inspection.
	fmt.Printf("partition: %d PEAC node routines, %d communication calls, %d host moves\n",
		comp.PartStats.NodeRoutines, comp.PartStats.CommCalls, comp.PartStats.HostMoves)
	for _, r := range comp.Program.Routines {
		fmt.Printf("  routine %s: %d instructions, %d flops/iteration\n",
			r.Name, r.InstrCount(), r.FlopsPerIteration())
	}

	res, err := comp.Run(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range res.Output {
		fmt.Println("program output:", line)
	}
	fmt.Printf("modeled: %.3f ms on %d PEs, %.2f GFLOPS\n",
		res.Seconds()*1e3, comp.Machine.PEs, res.GFLOPS())

	// Cross-check against the reference interpreter.
	oracle, err := f90y.Interpret("quickstart.f90", source)
	if err != nil {
		log.Fatal(err)
	}
	want, _ := oracle.Scalar("ksum")
	got := res.Store.Scalars["ksum"]
	fmt.Printf("verify: compiled ksum = %v, interpreter ksum = %d\n", got, want.I)
	if got != float64(want.I) {
		log.Fatal("MISMATCH")
	}
}
