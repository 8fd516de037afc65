// Masked: WHERE/ELSEWHERE computation and strided-section assignment on
// the simulated CM/2. The slicewise PE has no conditional control flow —
// "the programmer must use masked moves to simulate conditional
// assignment" (§2.2) — so the compiler pads sections to full-array masked
// operations (Fig. 10) and blocks the disjoint-mask moves together. The
// example prints the generated PEAC so the masked stores and coordinate
// mask tests are visible.
//
// Run with:
//
//	go run ./examples/masked
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"f90y"
	"f90y/internal/oracle"
)

const source = `
program masked
integer, parameter :: n = 64
real, array(n,n) :: field, work
real bound
forall (i=1:n, j=1:n) field(i,j) = sin(i*0.2) * cos(j*0.3) * 10.0

! Clip through WHERE/ELSEWHERE: complementary masked moves.
bound = 4.0
where (field > bound)
  work = bound
elsewhere
  work = field
end where

! Red-black relaxation via disjoint stride-2 sections (Fig. 10 pattern):
! the optimizer pads both to full-shape masked moves and fuses them.
field(1:n:2,:) = work(1:n:2,:)*0.5
field(2:n:2,:) = work(2:n:2,:)*2.0
end program masked
`

func main() {
	comp, err := f90y.Compile("masked.f90", source, f90y.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimizer: %d section moves padded to masked full-shape moves, %d fused\n\n",
		comp.OptStats.PaddedMoves, comp.OptStats.FusedMoves)

	for _, r := range comp.Program.Routines {
		fmt.Printf("--- %s (%d instructions, %d spill slots) ---\n", r.Name, r.InstrCount(), r.SpillSlots)
		fmt.Print(r.Format())
		fmt.Println()
	}

	res, err := comp.Run(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := oracle.Verify("masked.f90", source, oracle.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verify: %d values bit-identical across %s\n", rep.Elems, strings.Join(rep.Backends, ", "))
	fmt.Printf("modeled: %.2f GFLOPS over %d node dispatches\n", res.GFLOPS(), res.NodeCalls)
}
