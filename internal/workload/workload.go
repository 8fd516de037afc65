// Package workload provides the benchmark programs of the paper's
// evaluation (§6) and the worked examples of its figures, as Fortran 90
// source parameterized by problem size.
//
// The centerpiece is SWE, "an updated Fortran-90 version of a dusty deck
// code to implement a meteorological model, the shallow-water equations":
// a leapfrog time integration over a doubly-periodic grid — "a series of
// circular shifts interspersed with blocks of local computation", which
// §6 calls an ideal problem for a SIMD data-parallel machine.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// SWE returns the shallow-water-equations benchmark over an n-by-n grid
// running itmax leapfrog steps. The operation mix follows the classic
// Sadourny formulation: per step, four diagnostic fields (mass fluxes CU
// and CV, potential vorticity Z, Bernoulli function H) from nine circular
// shifts, three prognostic updates (UNEW/VNEW/PNEW) from eight more
// shifts, and a Robert–Asselin time filter — all grid-local except the
// CSHIFTs.
func SWE(n, itmax int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `program swe
integer, parameter :: n = %d
integer, parameter :: itmax = %d
real, array(n,n) :: u, v, p, unew, vnew, pnew, uold, vold, pold
real, array(n,n) :: cu, cv, z, h, psi
real, parameter :: a = 1000000.0
real, parameter :: dt = 90.0
real, parameter :: el = n*100000.0
real :: pi, tpi, di, dj, pcf, dx, dy, fsdx, fsdy, tdt, tdts8, tdtsdx, tdtsdy, alpha
integer :: ncycle
pi = 3.14159265359
tpi = pi + pi
di = tpi/n
dj = tpi/n
dx = 100000.0
dy = 100000.0
fsdx = 4.0/dx
fsdy = 4.0/dy
alpha = 0.001
pcf = pi*pi*a*a/(el*el)

! Initial conditions from a stream function.
forall (i=1:n, j=1:n) psi(i,j) = a*sin((i - 0.5)*di)*sin((j - 0.5)*dj)
forall (i=1:n, j=1:n) p(i,j) = pcf*(cos(2.0*(i - 1)*di) + cos(2.0*(j - 1)*dj)) + 50000.0
u = -(cshift(psi, dim=2, shift=1) - psi)*(n/el)*10.0
v = (cshift(psi, dim=1, shift=1) - psi)*(n/el)*10.0
uold = u
vold = v
pold = p
tdt = dt

do ncycle = 1, itmax
  ! Compute capital-U, capital-V, Z and H.
  cu = 0.5*(p + cshift(p, dim=1, shift=-1))*u
  cv = 0.5*(p + cshift(p, dim=2, shift=-1))*v
  z = (fsdx*(v - cshift(v, dim=1, shift=-1)) - fsdy*(u - cshift(u, dim=2, shift=-1))) &
      / (p + cshift(p, dim=1, shift=-1) + cshift(p, dim=2, shift=-1) &
         + cshift(cshift(p, dim=1, shift=-1), dim=2, shift=-1))
  h = p + 0.25*(u*u + cshift(u, dim=1, shift=1)*cshift(u, dim=1, shift=1)) &
        + 0.25*(v*v + cshift(v, dim=2, shift=1)*cshift(v, dim=2, shift=1))

  tdts8 = tdt/8.0
  tdtsdx = tdt/dx
  tdtsdy = tdt/dy

  ! Advance the prognostic fields.
  unew = uold + tdts8*(z + cshift(z, dim=2, shift=1))*(cv + cshift(cv, dim=1, shift=1) &
         + cshift(cshift(cv, dim=1, shift=1), dim=2, shift=-1) + cshift(cv, dim=2, shift=-1)) &
         - tdtsdx*(h - cshift(h, dim=1, shift=-1))
  vnew = vold - tdts8*(z + cshift(z, dim=1, shift=1))*(cu + cshift(cu, dim=2, shift=1) &
         + cshift(cshift(cu, dim=1, shift=-1), dim=2, shift=1) + cshift(cu, dim=1, shift=-1)) &
         - tdtsdy*(h - cshift(h, dim=2, shift=-1))
  pnew = pold - tdtsdx*(cshift(cu, dim=1, shift=1) - cu) - tdtsdy*(cshift(cv, dim=2, shift=1) - cv)

  ! Robert–Asselin time filter and rotation.
  uold = u + alpha*(unew - 2.0*u + uold)
  vold = v + alpha*(vnew - 2.0*v + vold)
  pold = p + alpha*(pnew - 2.0*p + pold)
  u = unew
  v = vnew
  p = pnew
  tdt = dt + dt
end do
end program swe
`, n, itmax)
	return b.String()
}

// Fig9 is the domain-blocking example of Fig. 9: two like-shape parallel
// computations separated by a serial diagonal extraction.
func Fig9(n int) string {
	return fmt.Sprintf(`program fig9
integer, parameter :: n = %d
integer, array(n,n) :: a, b
integer c(n)
integer i
forall (i=1:n, j=1:n) b(i,j) = i*3 + j
forall (i=1:n, j=1:n) a(i,j) = b(i,j) + j
do i = 1, n
  c(i) = a(i,i)
end do
b = a
end program fig9
`, n)
}

// Fig10 is the masked-assignment blocking example of Fig. 10: disjoint
// stride-2 section assignments around an unrelated vector computation.
func Fig10(n int) string {
	return fmt.Sprintf(`program fig10
integer, parameter :: n = %d
integer, array(n,n) :: a, b
integer c(n)
integer m
m = 7
a = m
b(1:n:2,:) = a(1:n:2,:)
c = m + 1
b(2:n:2,:) = 5*a(2:n:2,:)
end program fig10
`, n)
}

// Fig11 builds the phase-alternation example of Fig. 11: nphases
// computations alternating between shape A (n-by-n) and shape B (a vector
// of length n), with communications on the shape boundaries. Blocking
// should collapse the A-computations that dependences allow.
func Fig11(n, nphases int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program fig11\ninteger, parameter :: n = %d\n", n)
	b.WriteString("real, array(n,n) :: a1, a2\nreal bv(n)\nreal s\n")
	b.WriteString("a1 = 1.0\na2 = 2.0\nbv = 0.5\ns = 0.0\n")
	for i := 0; i < nphases; i++ {
		switch i % 4 {
		case 0:
			fmt.Fprintf(&b, "a1 = a1*1.5 + a2\n")
		case 1:
			fmt.Fprintf(&b, "bv = bv + %d.0\n", i)
		case 2:
			fmt.Fprintf(&b, "a2 = a2 + cshift(a1, 1, 1)*0.25\n")
		case 3:
			fmt.Fprintf(&b, "s = s + %d.0\n", i)
		}
	}
	b.WriteString("end program fig11\n")
	return b.String()
}

// Fig12 is the SWE excerpt of Fig. 12 in isolation, with the shifted
// operands precomputed so the statement is one pure computation block.
func Fig12(n int) string {
	return fmt.Sprintf(`program fig12
integer, parameter :: n = %d
real, array(n,n) :: z, u, v, p, t0, t1, t2
real fsdx, fsdy
forall (i=1:n, j=1:n) u(i,j) = i + 2*j
forall (i=1:n, j=1:n) v(i,j) = 3*i - j
forall (i=1:n, j=1:n) p(i,j) = 100 + i + j
fsdx = 4.0/n
fsdy = 4.0/n
t0 = cshift(v, dim=1, shift=-1)
t1 = cshift(u, dim=2, shift=-1)
t2 = cshift(p, dim=1, shift=1)
z = (fsdx*(v - t0) - fsdy*(u - t1))/(p + t2)
end program fig12
`, n)
}

// Stencil is a nine-point convolution benchmark (the kind of fine-grain
// stencil §1 notes the CMF machine model handled poorly).
func Stencil(n, iters int) string {
	return fmt.Sprintf(`program stencil
integer, parameter :: n = %d
integer, parameter :: iters = %d
real, array(n,n) :: grid, next
integer it
forall (i=1:n, j=1:n) grid(i,j) = mod(i*7 + j*13, 19)*1.0
do it = 1, iters
  next = 0.25*grid &
       + 0.125*(cshift(grid, dim=1, shift=1) + cshift(grid, dim=1, shift=-1) &
              + cshift(grid, dim=2, shift=1) + cshift(grid, dim=2, shift=-1)) &
       + 0.0625*(cshift(cshift(grid, dim=1, shift=1), dim=2, shift=1) &
               + cshift(cshift(grid, dim=1, shift=1), dim=2, shift=-1) &
               + cshift(cshift(grid, dim=1, shift=-1), dim=2, shift=1) &
               + cshift(cshift(grid, dim=1, shift=-1), dim=2, shift=-1))
  grid = next
end do
end program stencil
`, n, iters)
}

// DoShift shifts by amounts, and fills with a boundary, that name the
// index of the enclosing serial DO — one level up and two: the runtime
// intrinsics' scalar arguments are evaluated by the communication
// layer, the loop frames live in the host VM, and the two must meet.
func DoShift(n int) string {
	return fmt.Sprintf(`program doshift
integer, parameter :: n = %d
real, array(n) :: a, b, c
integer it, jt
forall (i=1:n) a(i) = i
b = 0.0
c = 0.0
do it = 1, 3
  b = b + cshift(a, shift=it)
  c = c + eoshift(a, shift=1, boundary=0.5*it)
  do jt = 1, 2
    b = b + cshift(a, shift=it-2*jt)
    c = c + eoshift(a, shift=jt-it, boundary=1.0*(it+jt))
  end do
end do
print *, 'b', sum(b*a)
print *, 'c', sum(c*a)
end program doshift
`, n)
}

// SpillKernel is a synthetic computation whose live-value count is
// controlled by depth, driving the register allocator past the eight
// vector registers (the E6 spill-pressure experiment).
func SpillKernel(n, terms int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program spill\ninteger, parameter :: n = %d\n", n)
	names := make([]string, terms)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	fmt.Fprintf(&b, "real, array(n) :: r, %s\n", strings.Join(names, ", "))
	for i, nm := range names {
		fmt.Fprintf(&b, "%s = %d.5\n", nm, i)
	}
	// A communication on the first operand pins the kernel in its own
	// computation block, so every term is a genuine subgrid load (without
	// it, store-to-load forwarding would fold the whole kernel into the
	// initialization block's constants).
	fmt.Fprintf(&b, "%s = cshift(%s, 1)\n", names[0], names[0])
	// Sum of all pairwise-staggered products keeps every load live.
	var sum, prod []string
	for _, nm := range names {
		sum = append(sum, nm)
		prod = append(prod, nm)
	}
	fmt.Fprintf(&b, "r = (%s) * (%s)\n", strings.Join(sum, " + "), strings.Join(prod, " * "))
	b.WriteString("end program spill\n")
	return b.String()
}

// Statements is the in-module twin of the repository benchmark's
// generated straight-line program (bench/workloads.go genStatements,
// behind compile_big and serve_cold): nstmts array statements over six
// n×n arrays in four forms — array assignment, CSHIFT, a WHERE/ELSEWHERE
// block, SUM into a scalar — every update a convex blend plus a constant
// below 1, so values stay bounded however long the program is. It drives
// the compile-path ledger (BenchmarkCompile, TestCompileAllocBudget); the
// generated-program testing item on the roadmap will subsume it.
func Statements(n, nstmts int) string {
	const narr = 6
	r := rand.New(rand.NewSource(1)) // one structure at every length
	arr := func() string { return fmt.Sprintf("x%d", r.Intn(narr)) }
	// constant draws from band: [band+0.001, band+0.199], so it never
	// equals one of the template's own literals (0.25, 0.5).
	constant := func(band float64) float64 { return band + float64(1+r.Intn(199))/1000 }
	var b strings.Builder
	fmt.Fprintf(&b, "program stmts\ninteger, parameter :: n = %d\n", n)
	b.WriteString("real, array(n,n) :: x0, x1, x2, x3, x4, x5\nreal :: s, chk\n")
	b.WriteString("s = 0.0\n")
	for k := 0; k < narr; k++ {
		fmt.Fprintf(&b, "forall (i=1:n, j=1:n) x%d(i,j) = mod(i*%d + j*%d, 17)/17.0\n", k, 3+2*k, 5+k)
	}
	for i := 0; i < nstmts; i++ {
		switch i % 8 {
		case 0, 1, 2, 3:
			fmt.Fprintf(&b, "%s = 0.5*%s + 0.25*%s + %.3f\n", arr(), arr(), arr(), constant(0))
		case 4, 5:
			fmt.Fprintf(&b, "%s = 0.5*cshift(%s, dim=%d, shift=%d) + 0.25*%s + %.3f\n",
				arr(), arr(), 1+r.Intn(2), 1-2*r.Intn(2), arr(), constant(0.3))
		case 6:
			t, m := arr(), arr()
			fmt.Fprintf(&b, "where (%s > %.3f)\n  %s = 0.5*%s\nelsewhere\n  %s = 0.25*%s + %.3f\nend where\n",
				m, constant(0.5), t, t, t, t, constant(0.7))
		case 7:
			fmt.Fprintf(&b, "s = sum(%s)/(n*n)\n", arr())
		}
	}
	b.WriteString("chk = sum(x0) + sum(x1) + sum(x2) + sum(x3) + sum(x4) + sum(x5)\n")
	b.WriteString("print *, 'chk', chk, s\nend program stmts\n")
	return b.String()
}
