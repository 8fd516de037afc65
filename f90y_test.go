package f90y_test

// The corpus lives in the external test package: internal/oracle
// imports f90y.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"f90y"
	"f90y/internal/opt"
	"f90y/internal/oracle"
	"f90y/internal/pe"
	"f90y/internal/workload"
)

// configs are the optimization levels every corpus program must agree
// under: the full compiler, the CMF-like per-statement configuration, a
// naive PE back end, and everything off.
var configs = map[string]f90y.Config{
	"optimized": {Opt: opt.Default, PE: pe.Optimized},
	"cmf-like":  f90y.CMFConfig(),
	"naive-pe":  {Opt: opt.Default, PE: pe.Naive},
	"no-opt":    {Opt: opt.Options{PadSections: true}, PE: pe.Naive},
}

// agree verifies src under every configuration: oracle.Verify runs it on
// the interpreter and on every machine, and arrays, scalars and PRINT
// output must be bit-identical.
func agree(t *testing.T, name, src string) {
	t.Helper()
	for cname, cfg := range configs {
		if _, err := oracle.Verify(name, src, oracle.Options{Config: &cfg}); err != nil {
			t.Fatalf("[%s] %v\nsource:\n%s", cname, err, src)
		}
	}
}

func wrap(body string) string {
	return "program t\n" + body + "\nend program t\n"
}

func TestEndToEndPaperSection21(t *testing.T) {
	agree(t, "fig8.f90", wrap(`integer k(128,64), l(128)
integer i, j
do 10 i=1,128
   l(i) = 3
   do 20 j=1,64
      k(i,j) = i + j
20 continue
10 continue
l = 6
k = 2*k + 5
l(32:64) = l(96:128)
k(32:64,:) = k(32:64,:)**2`))
}

func TestEndToEndFig9(t *testing.T) {
	agree(t, "fig9.f90", wrap(`integer, array(64,64) :: a, b
integer c(64)
integer i
forall (i=1:64, j=1:64) b(i,j) = i*3 + j
forall (i=1:64, j=1:64) a(i,j) = b(i,j) + j
do i = 1, 64
  c(i) = a(i,i)
end do
b = a`))
}

func TestEndToEndFig10(t *testing.T) {
	agree(t, "fig10.f90", wrap(`integer, array(32,32) :: a, b
integer c(32)
integer n
n = 7
a = n
b(1:32:2,:) = a(1:32:2,:)
c = n + 1
b(2:32:2,:) = 5*a(2:32:2,:)`))
}

func TestEndToEndFig7Forall(t *testing.T) {
	agree(t, "fig7.f90", wrap("integer, array(32,32) :: a\nforall (i=1:32, j=1:32) a(i,j) = i+j"))
}

func TestEndToEndCshift(t *testing.T) {
	agree(t, "cshift.f90", wrap(`real, array(16,16) :: v, z
real fsdx
integer i
forall (i=1:16, j=1:16) v(i,j) = i*0.5 + j*j
fsdx = 4.0/16.0
z = fsdx*(v - cshift(v, dim=1, shift=-1))`))
}

func TestEndToEndSWEExcerpt(t *testing.T) {
	// The Fig. 12 statement, with real CSHIFT communication.
	agree(t, "fig12.f90", wrap(`real, array(32,32) :: z, u, v, p
real fsdx, fsdy
forall (i=1:32, j=1:32) u(i,j) = i + 2*j
forall (i=1:32, j=1:32) v(i,j) = 3*i - j
forall (i=1:32, j=1:32) p(i,j) = 100 + i + j
fsdx = 4.0/32.0
fsdy = 4.0/32.0
z = (fsdx*(v - cshift(v, dim=1, shift=-1)) - &
     fsdy*(u - cshift(u, dim=2, shift=-1))) / (p + cshift(p, dim=1, shift=1))`))
}

func TestEndToEndWhere(t *testing.T) {
	agree(t, "where.f90", wrap(`real a(64), b(64)
integer i
do i = 1, 64
  a(i) = i - 32.5
end do
where (a > 0)
  b = sqrt(a)
elsewhere
  b = -a
end where
where (b > 30.0) b = 30.0`))
}

func TestEndToEndWhereMaskConflict(t *testing.T) {
	agree(t, "wherec.f90", wrap(`real a(16)
integer i
do i = 1, 16
  a(i) = i - 8.5
end do
where (a > 0) a = -a`))
}

func TestEndToEndReductionsAndPrint(t *testing.T) {
	agree(t, "reduce.f90", wrap(`real a(100)
real s, mx, mn
integer i
do i = 1, 100
  a(i) = sin(i*0.1)
end do
s = sum(a)
mx = maxval(a)
mn = minval(a)
print *, 'n =', size(a)`))
}

func TestEndToEndEoshiftTransposeSpread(t *testing.T) {
	agree(t, "comm.f90", wrap(`integer, array(8,8) :: a, b
integer v(8)
integer, array(4,8) :: sp
forall (i=1:8, j=1:8) a(i,j) = 10*i + j
b = transpose(a)
forall (i=1:8) v(i) = i*i
sp = spread(v, 1, 4)
a = eoshift(a, 1, boundary=-1, dim=2)`))
}

func TestEndToEndDotProduct(t *testing.T) {
	agree(t, "dot.f90", wrap(`real x(32), y(32)
real d
integer i
do i = 1, 32
  x(i) = i*0.25
  y(i) = 1.0/i
end do
d = dot_product(x, y)`))
}

func TestEndToEndMerge(t *testing.T) {
	agree(t, "merge.f90", wrap(`integer a(16), b(16), c(16)
integer i
do i = 1, 16
  a(i) = i
  b(i) = -i
end do
c = merge(a, b, mod(a, 3) == 0)`))
}

func TestEndToEndControlFlow(t *testing.T) {
	agree(t, "control.f90", wrap(`integer i, s, n
real x(8)
n = 12
s = 0
do while (s < 50)
  s = s + n
end do
if (s > 55) then
  x = 1.5
else if (s > 50) then
  x = 2.5
else
  x = 3.5
end if
do i = 8, 1, -2
  x(i) = x(i) + i
end do`))
}

func TestEndToEndSerialDiagonal(t *testing.T) {
	agree(t, "diag.f90", wrap(`integer, array(16,16) :: a
integer c(16)
integer i
forall (i=1:16, j=1:16) a(i,j) = i*100 + j
do i = 1, 16
  c(i) = a(i, 17-i)
end do`))
}

func TestEndToEndGatherForall(t *testing.T) {
	agree(t, "gather.f90", wrap(`integer, array(8,8) :: a, b
forall (i=1:8, j=1:8) b(i,j) = 10*i + j
forall (i=1:8, j=1:8) a(i,j) = b(j,i)`))
}

func TestEndToEndMixedKinds(t *testing.T) {
	agree(t, "kinds.f90", wrap(`integer k(16)
real x(16)
double precision d(16)
integer i
do i = 1, 16
  k(i) = i*3 - 20
end do
x = k/2 + 0.5
d = x*2.0d0 + abs(k)
k = int(d) - k**2`))
}

func TestEndToEndPowers(t *testing.T) {
	agree(t, "pow.f90", wrap(`real x(8), y(8)
integer k(8)
integer i
do i = 1, 8
  x(i) = 1.0 + i*0.25
  k(i) = i
end do
y = x**3 + x**(-2)
k = k**2`))
}

func TestEndToEndStopAndOutput(t *testing.T) {
	agree(t, "stop.f90", wrap(`integer i
i = 41
print *, 'before', i
i = i + 1
print *, 'answer', i
stop
print *, 'never'`))
}

func TestEndToEndExplicitBounds(t *testing.T) {
	agree(t, "bounds.f90", wrap(`real, dimension(0:15) :: a
integer i
do i = 0, 15
  a(i) = i*1.5
end do
a(0:7) = a(8:15)`))
}

func TestEndToEndTimeLoopWithComm(t *testing.T) {
	// The SWE pattern: a serial time loop containing parallel compute and
	// communication, exercising blocking inside loop bodies.
	agree(t, "timeloop.f90", wrap(`real, array(16,16) :: u, unew
integer it
forall (i=1:16, j=1:16) u(i,j) = i + j*j
do it = 1, 5
  unew = 0.25*(cshift(u, 1, 1) + cshift(u, -1, 1) + cshift(u, 1, 2) + cshift(u, -1, 2))
  u = unew + 0.01
end do`))
}

// TestRandomStraightLinePrograms is the semantic-preservation property
// test: randomized whole-array straight-line programs must agree with the
// interpreter bit for bit under every optimization level.
func TestRandomStraightLinePrograms(t *testing.T) {
	gen := func(seed int64) string {
		r := rand.New(rand.NewSource(seed))
		arrays := []string{"a", "b", "c", "d"}
		var b strings.Builder
		b.WriteString("program r\nreal a(24), b(24), c(24), d(24)\ninteger i\n")
		b.WriteString("do i = 1, 24\n  a(i) = i*0.5\n  b(i) = 25 - i\n  c(i) = i*i*0.01\n  d(i) = 1.0\nend do\n")
		ops := []string{"+", "-", "*"}
		for k := 0; k < 6+r.Intn(6); k++ {
			tgt := arrays[r.Intn(len(arrays))]
			e1 := arrays[r.Intn(len(arrays))]
			e2 := arrays[r.Intn(len(arrays))]
			op := ops[r.Intn(len(ops))]
			switch r.Intn(4) {
			case 0:
				fmt.Fprintf(&b, "%s = %s %s %s\n", tgt, e1, op, e2)
			case 1:
				fmt.Fprintf(&b, "%s = %s %s %g\n", tgt, e1, op, float64(r.Intn(9))+0.5)
			case 2:
				fmt.Fprintf(&b, "%s = abs(%s) %s %s\n", tgt, e1, op, e2)
			case 3:
				fmt.Fprintf(&b, "where (%s > %s) %s = %s %s 2.0\n", e1, e2, tgt, e1, op)
			}
		}
		b.WriteString("end program r\n")
		return b.String()
	}
	f := func(seed int64) bool {
		src := gen(seed)
		for cname, cfg := range configs {
			if _, err := oracle.Verify("rand.f90", src, oracle.Options{Config: &cfg}); err != nil {
				t.Logf("[%s] %v\n%s", cname, err, src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestModeledPerformanceCounters checks the cost accounting is populated
// and internally consistent.
func TestModeledPerformanceCounters(t *testing.T) {
	src := wrap(`real, array(64,64) :: u, v
integer it
u = 1.5
do it = 1, 3
  v = cshift(u, 1, 1)*0.5 + u
  u = v
end do`)
	comp, err := f90y.Compile("perf.f90", src, f90y.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := comp.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeCalls == 0 || res.CommCalls == 0 {
		t.Fatalf("calls: node=%d comm=%d", res.NodeCalls, res.CommCalls)
	}
	if res.Flops == 0 || res.PECycles == 0 || res.CommCycles == 0 || res.HostCycles == 0 {
		t.Fatalf("counters: %+v", res)
	}
	if res.GFLOPS() <= 0 {
		t.Fatalf("gflops = %v", res.GFLOPS())
	}
}

// TestEndToEndSWE runs the paper's benchmark itself through every
// configuration (the cmf-like row is the CM Fortran model) and checks
// every field against the interpreter.
func TestEndToEndSWE(t *testing.T) {
	src := workload.SWE(16, 3)
	agree(t, "swe.f90", src)
}

// TestCMFCompilesPerStatement holds the model to §6's explanation: no
// cross-statement blocking, so four like-shape statements become four
// node routines.
func TestCMFCompilesPerStatement(t *testing.T) {
	comp, err := f90y.Compile("t.f90", wrap(`real, array(32,32) :: a, b
a = 1.0
b = a*2.0
a = b + 1.0
b = a*a`), f90y.CMFConfig())
	if err != nil {
		t.Fatal(err)
	}
	if comp.PartStats.NodeRoutines != 4 || len(comp.Program.Routines) != 4 {
		t.Fatalf("node routines = %d (%d in the program), want 4 (per statement)",
			comp.PartStats.NodeRoutines, len(comp.Program.Routines))
	}
}

func TestEndToEndLogicalReductions(t *testing.T) {
	agree(t, "lred.f90", wrap(`real a(32)
logical anyneg, allpos
integer nneg
real prod
integer i
do i = 1, 32
  a(i) = i - 5.5
end do
anyneg = any(a < 0)
allpos = all(a > 0)
nneg = count(a < 0)
prod = product(a(1:4))
print *, anyneg, allpos, nneg, prod`))
}

func TestEndToEndSpillCodeExecutes(t *testing.T) {
	// Register pressure past the file: the spill/restore code itself must
	// compute correct values, not only correct costs.
	agree(t, "spill.f90", wrap(`real a(16), b(16), c(16), d(16), e(16), f(16)
real g(16), h(16), p(16), q(16), r(16)
integer i
do i = 1, 16
  a(i) = i*0.5
  b(i) = i + 1.0
  c(i) = 17.0 - i
  d(i) = i*i*0.1
  e(i) = 1.0/i
  f(i) = i - 8.0
  g(i) = i*0.25 + 3.0
  h(i) = 2.0*i - 5.0
  p(i) = i*1.5
  q(i) = 20.0 - i*0.5
end do
r = (a+b+c+d+e+f+g+h+p+q) * (a*b*c*d*e*f*g*h*p*q)`))
}

func TestEndToEndForallStride(t *testing.T) {
	agree(t, "fstride.f90", wrap(`integer a(16)
a = -1
forall (i=1:16:3) a(i) = i*i`))
}

func TestEndToEndNestedWhereInLoop(t *testing.T) {
	agree(t, "nestwhere.f90", wrap(`real a(32), b(32)
integer it
integer i
do i = 1, 32
  a(i) = sin(i*0.3)
end do
b = 0.0
do it = 1, 4
  where (a > 0)
    b = b + a
  elsewhere
    b = b - a*0.5
  end where
  a = cshift(a, 1)
end do`))
}

func TestEndToEndSectionWithBoundsAndStride(t *testing.T) {
	agree(t, "secmix.f90", wrap(`integer a(20), b(20)
integer i
do i = 1, 20
  a(i) = i
  b(i) = 0
end do
b(3:17:2) = a(3:17:2)*10
b(2:20:4) = b(2:20:4) + 1`))
}

func TestEndToEndEoshiftNegative(t *testing.T) {
	agree(t, "eoneg.f90", wrap(`integer a(6), b(6)
integer i
do i = 1, 6
  a(i) = i*11
end do
b = eoshift(a, -2, boundary=7)`))
}

func TestEndToEndMultipleKindsInOneBlock(t *testing.T) {
	agree(t, "mixblock.f90", wrap(`integer k(24)
real x(24), y(24)
integer i
do i = 1, 24
  k(i) = i - 12
end do
x = k*0.5
y = abs(x) + k
k = k + int(y)`))
}

func TestEndToEndDoublePrecisionSWEStep(t *testing.T) {
	agree(t, "dpstep.f90", wrap(`double precision u(16), v(16)
double precision dt
integer i
do i = 1, 16
  u(i) = sin(i*0.4)
end do
dt = 0.125d0
v = u + dt*(cshift(u, 1) - 2.0d0*u + cshift(u, -1))`))
}
