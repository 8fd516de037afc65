package main

// Seeded Fortran-90-Y source generators and the workload table. The
// templates live here, not in f90y/internal/workload, so a change to the
// program under test can never change the benchmark's inputs. A seed
// perturbs real literal constants only: never a shape, an extent, a trip
// count, a statement or its operands. Every seed of one workload therefore
// compiles to the same routines and moves the same data, so model_cycles
// is the same for every seed, while each seed is a distinct source text
// (a distinct compile-cache key) computing distinct values.

import (
	"fmt"
	"math/rand"
	"strings"
)

// Sizes are fixed per workload; the reduced variant of a CLI program is
// the same template at a grid the reference interpreter finishes in well
// under a second, used only for the -verify correctness pass.
const (
	sweN, sweSteps           = 512, 3
	sweVerifyN               = 128
	routerVec, routerMat     = 1 << 20, 512
	routerIters              = 2
	routerVerifyVec          = 1 << 12
	routerVerifyMat          = 32
	compileBigStmts          = 4000
	compileBigN              = 16
	serveSweN, serveSweSteps = 192, 2
	serveColdStmts           = 300
	serveSources             = 8
)

// rngFor derives an independent deterministic stream per (seed, purpose)
// so adding a draw to one generator never shifts another's.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range []byte(purpose) {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*1000003 ^ h))
}

// genSWE is the paper's §6 shallow-water benchmark (Sadourny leapfrog
// over a doubly periodic n×n grid) with a checksum PRINT per prognostic
// field so every run has an output to compare. The seed perturbs the
// physical constants.
func genSWE(r *rand.Rand, n, steps int) string {
	a := 1000000.0 + float64(r.Intn(100))*1000.0
	dt := 90.0 + float64(r.Intn(20))
	alpha := 0.001 + float64(r.Intn(9))*0.0001
	p0 := 50000.0 + float64(r.Intn(50))*100.0
	return fmt.Sprintf(`program swe
integer, parameter :: n = %d
integer, parameter :: itmax = %d
real, array(n,n) :: u, v, p, unew, vnew, pnew, uold, vold, pold
real, array(n,n) :: cu, cv, z, h, psi
real, parameter :: a = %.1f
real, parameter :: dt = %.1f
real, parameter :: el = n*100000.0
real :: pi, tpi, di, dj, pcf, dx, dy, fsdx, fsdy, tdt, tdts8, tdtsdx, tdtsdy, alpha
real :: chku, chkv, chkp
integer :: ncycle
pi = 3.14159265359
tpi = pi + pi
di = tpi/n
dj = tpi/n
dx = 100000.0
dy = 100000.0
fsdx = 4.0/dx
fsdy = 4.0/dy
alpha = %.4f
pcf = pi*pi*a*a/(el*el)
forall (i=1:n, j=1:n) psi(i,j) = a*sin((i - 0.5)*di)*sin((j - 0.5)*dj)
forall (i=1:n, j=1:n) p(i,j) = pcf*(cos(2.0*(i - 1)*di) + cos(2.0*(j - 1)*dj)) + %.1f
u = -(cshift(psi, dim=2, shift=1) - psi)*(n/el)*10.0
v = (cshift(psi, dim=1, shift=1) - psi)*(n/el)*10.0
uold = u
vold = v
pold = p
tdt = dt
do ncycle = 1, itmax
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
  unew = uold + tdts8*(z + cshift(z, dim=2, shift=1))*(cv + cshift(cv, dim=1, shift=1) &
         + cshift(cshift(cv, dim=1, shift=1), dim=2, shift=-1) + cshift(cv, dim=2, shift=-1)) &
         - tdtsdx*(h - cshift(h, dim=1, shift=-1))
  vnew = vold - tdts8*(z + cshift(z, dim=1, shift=1))*(cu + cshift(cu, dim=2, shift=1) &
         + cshift(cshift(cu, dim=1, shift=-1), dim=2, shift=1) + cshift(cu, dim=1, shift=-1)) &
         - tdtsdy*(h - cshift(h, dim=2, shift=-1))
  pnew = pold - tdtsdx*(cshift(cu, dim=1, shift=1) - cu) - tdtsdy*(cshift(cv, dim=2, shift=1) - cv)
  uold = u + alpha*(unew - 2.0*u + uold)
  vold = v + alpha*(vnew - 2.0*v + vold)
  pold = p + alpha*(pnew - 2.0*p + pold)
  u = unew
  v = vnew
  p = pnew
  tdt = dt + dt
end do
chku = sum(u)
chkv = sum(v)
chkp = sum(p)
print *, 'u', chku
print *, 'v', chkv
print *, 'p', chkp
end program swe
`, n, steps, a, dt, alpha, p0)
}

// genRouter chains the two router-bound layout kernels in one program: an
// irregular near-neighbour GATHER over a CYCLIC vector, which scatters
// every partner onto another PE, and a transpose ping-pong over a
// (CYCLIC, CYCLIC) grid, a general-router permutation. Both go through
// rt.Comm's router and exact owner-counting path, not the default-layout
// NEWS path SWE uses. The seed perturbs the fill and blend constants; the
// gather's index pattern, which the router cost depends on, is fixed.
func genRouter(r *rand.Rand, vec, mat, iters int) string {
	ca := 0.001 + float64(r.Intn(9))*0.0001
	cb := 0.5 - float64(1+r.Intn(7))*0.03125
	cm := 0.001 + float64(r.Intn(9))*0.0001
	cc := 0.125 + float64(1+r.Intn(3))*0.03125
	return fmt.Sprintf(`program router
integer, parameter :: n = %d
integer, parameter :: m = %d
integer, parameter :: iters = %d
real, array(n) :: a, b
integer, array(n) :: idx
real, array(m,m) :: ta, tb, tc
real :: chka, chkt
integer it
!HPF$ DISTRIBUTE a(CYCLIC)
!HPF$ ALIGN b WITH a
!HPF$ ALIGN idx WITH a
!HPF$ DISTRIBUTE ta(CYCLIC, CYCLIC)
!HPF$ ALIGN tb WITH ta
!HPF$ ALIGN tc WITH ta
forall (i=1:n) a(i) = %.4f*i
forall (i=1:n) idx(i) = 1 + mod(i - 1 + mod(7*i, 5) - 2 + n, n)
b = 0.0
forall (i=1:m, j=1:m) ta(i,j) = %.4f*i + 0.000001*j
tc = 0.0
do it = 1, iters
  b = gather(a, idx)
  a = a*0.5 + %.5f*b
  tb = transpose(ta)
  tc = tc*0.5 + 0.5*tb
  ta = transpose(tb)*0.5 + %.5f*tc
end do
chka = sum(a)
chkt = sum(tc)
print *, 'a', chka
print *, 't', chkt
end program router
`, vec, mat, iters, ca, cm, cb, cc)
}

// genStatements is the generated straight-line program behind
// compile_big and serve_cold: nstmts array statements over six n×n
// arrays in four forms (array assignment, CSHIFT, a WHERE/ELSEWHERE
// block, SUM into a scalar). Every update is a convex blend plus a
// constant below 1, so values stay bounded however long the program is.
//
// The statements' forms, operands and the pattern of which constants are
// equal come from the name alone, so a program of one name has one
// structure under every seed. The seed r draws one offset per kind of
// constant; each kind lives in its own band of thousandths that holds
// none of the template's own literals (0.25, 0.5), so no seed makes two
// constants equal that another seed keeps apart, and the code generator's
// sharing of equal constants is the same for every seed.
func genStatements(r *rand.Rand, name string, n, nstmts int) string {
	const narr = 6
	structure := rngFor(0, "structure-"+name)
	arr := func() string { return fmt.Sprintf("x%d", structure.Intn(narr)) }
	var offset [4]int
	for k := range offset {
		offset[k] = r.Intn(100)
	}
	// constant draws from band kind: [band+0.001, band+0.199].
	constant := func(kind int, band float64) float64 {
		return band + float64(1+structure.Intn(100)+offset[kind])/1000
	}
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\ninteger, parameter :: n = %d\n", name, n)
	b.WriteString("real, array(n,n) :: x0, x1, x2, x3, x4, x5\nreal :: s, chk\ninteger :: nonce\n")
	b.WriteString("nonce = 0\ns = 0.0\n")
	for k := 0; k < narr; k++ {
		fmt.Fprintf(&b, "forall (i=1:n, j=1:n) x%d(i,j) = mod(i*%d + j*%d, 17)/17.0\n", k, 3+2*k, 5+k)
	}
	for i := 0; i < nstmts; i++ {
		switch i % 8 {
		case 0, 1, 2, 3:
			fmt.Fprintf(&b, "%s = 0.5*%s + 0.25*%s + %.3f\n", arr(), arr(), arr(), constant(0, 0))
		case 4, 5:
			fmt.Fprintf(&b, "%s = 0.5*cshift(%s, dim=%d, shift=%d) + 0.25*%s + %.3f\n",
				arr(), arr(), 1+structure.Intn(2), 1-2*structure.Intn(2), arr(), constant(1, 0.3))
		case 6:
			t, m := arr(), arr()
			fmt.Fprintf(&b, "where (%s > %.3f)\n  %s = 0.5*%s\nelsewhere\n  %s = 0.25*%s + %.3f\nend where\n",
				m, constant(2, 0.5), t, t, t, t, constant(3, 0.7))
		case 7:
			fmt.Fprintf(&b, "s = sum(%s)/(n*n)\n", arr())
		}
	}
	b.WriteString("chk = sum(x0) + sum(x1) + sum(x2) + sum(x3) + sum(x4) + sum(x5)\n")
	fmt.Fprintf(&b, "print *, 'chk', chk, s\nprint *, 'nonce', nonce\nend program %s\n", name)
	return b.String()
}

// withNonce makes src a distinct program (a distinct compile-cache key)
// whose output differs from src's only in the printed nonce: the nonce is
// one integer scalar assigned on the host and printed, so modeled cycles
// are unchanged and the expected output is the reference with its nonce
// line replaced.
func withNonce(src string, nonce int) string {
	return strings.Replace(src, "nonce = 0\n", fmt.Sprintf("nonce = %d\n", nonce), 1)
}

// nonceOutput is the reference output of a genStatements program carrying
// the given nonce.
func nonceOutput(ref string, nonce int) string {
	return strings.Replace(ref, "nonce 0\n", fmt.Sprintf("nonce %d\n", nonce), 1)
}

// oneLiner is the process floor under every CLI workload.
const oneLiner = "program one\nprint *, 1\nend program one\n"

// program is one generated source with its reduced twin for -verify
// (empty when the full-size program is itself cheap to interpret).
type program struct {
	name   string
	source string
	verify string
}

// workload describes one benchmark workload; BENCHMARK.json and
// README.md say why each exists. serve selects the f90yd closed-loop
// path; otherwise each op is one f90yrun process on programs[0].
type workload struct {
	name string
	// tailPct is the percentile op_tail_ms reports: the highest the
	// workload's op count supports with at least ten samples beyond it.
	tailPct  float64
	serve    bool
	cold     bool // serve: every request carries a fresh nonce (a cache miss)
	durable  bool // serve: f90yd runs with -state-dir
	warm     int  // ops before the timed window
	programs func(seed int64) []program
}

func workloads() []workload {
	serveSWE := func(seed int64) []program {
		ps := make([]program, serveSources)
		for i := range ps {
			r := rngFor(seed, fmt.Sprintf("serve-swe-%d", i))
			ps[i] = program{name: fmt.Sprintf("swe%d", i), source: genSWE(r, serveSweN, serveSweSteps)}
		}
		return ps
	}
	return []workload{
		{
			name: "swe", tailPct: 75, warm: 2,
			programs: func(seed int64) []program {
				return []program{{name: "swe",
					source: genSWE(rngFor(seed, "swe"), sweN, sweSteps),
					verify: genSWE(rngFor(seed, "swe"), sweVerifyN, sweSteps)}}
			},
		},
		{
			name: "router", tailPct: 75, warm: 2,
			programs: func(seed int64) []program {
				return []program{{name: "router",
					source: genRouter(rngFor(seed, "router"), routerVec, routerMat, routerIters),
					verify: genRouter(rngFor(seed, "router"), routerVerifyVec, routerVerifyMat, routerIters)}}
			},
		},
		{
			name: "compile_big", tailPct: 75, warm: 2,
			programs: func(seed int64) []program {
				return []program{{name: "big",
					source: genStatements(rngFor(seed, "compile_big"), "big", compileBigN, compileBigStmts)}}
			},
		},
		{
			// The first 8 warm-up requests compile; the rest let the server's
			// heap and the connections settle.
			name: "serve_hot", tailPct: 95, serve: true, warm: 64,
			programs: serveSWE,
		},
		{
			// Warm-up exceeds the server's LRU bound (coldCacheEntries), so
			// evictions run from the first timed request.
			name: "serve_cold", tailPct: 95, serve: true, cold: true, warm: 160,
			programs: func(seed int64) []program {
				ps := make([]program, serveSources)
				for i := range ps {
					r := rngFor(seed, fmt.Sprintf("serve-cold-%d", i))
					name := fmt.Sprintf("cold%d", i)
					ps[i] = program{name: name, source: genStatements(r, name, compileBigN, serveColdStmts)}
				}
				return ps
			},
		},
		{
			// Each request spills its 12 MB store as JSON three times, so an
			// op is ~0.6 s: one warm-up request per source fills both cache
			// tiers, and the window's ~40 ops support p75, not p95.
			name: "serve_durable", tailPct: 75, serve: true, durable: true, warm: serveSources,
			programs: serveSWE,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
