package f90y_test

import (
	"context"
	"fmt"
	"log"

	"f90y"
)

// ExampleCompile compiles the paper's §2.1 whole-array program and runs it
// on the simulated CM/2.
func ExampleCompile() {
	const src = `
program demo
integer k(128,64), l(128)
l = 6
k = 2*k + 5
print *, 'k(1,1) =', k(1,1), 'l(1) =', l(1)
end program demo
`
	comp, err := f90y.Compile("demo.f90", src, f90y.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	res, err := comp.Run(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Output[0])
	fmt.Println("node routines:", comp.PartStats.NodeRoutines)
	// Output:
	// k(1,1) = 5 l(1) = 6
	// node routines: 2
}

// ExampleInterpret runs the same program under the reference interpreter,
// the oracle every compiled result is validated against.
func ExampleInterpret() {
	const src = `
program demo
integer a(8)
integer i
do i = 1, 8
  a(i) = i*i
end do
print *, sum(a)
end program demo
`
	m, err := f90y.Interpret("demo.f90", src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(m.Output()[0])
	// Output:
	// 204
}

// ExampleCompilation_Run shows the machine model's performance report for
// a communication-heavy program.
func ExampleCompilation_Run() {
	const src = `
program stencil
real, array(64,64) :: g, n
n = 0.25*(cshift(g,1,1) + cshift(g,-1,1) + cshift(g,1,2) + cshift(g,-1,2))
g = n
end program stencil
`
	comp, err := f90y.Compile("stencil.f90", src, f90y.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	res, err := comp.Run(context.Background(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("communications:", res.CommCalls)
	// Domain blocking fuses the stencil combination and the copy-back
	// into a single node routine.
	fmt.Println("node dispatches:", res.NodeCalls)
	// Output:
	// communications: 4
	// node dispatches: 1
}
