package starlisp

import "math"

// RunSWE executes the hand-coded fieldwise *Lisp shallow-water-equations
// program: the same computation as workload.SWE, written operation by
// operation the way a *Lisp programmer would (each elemental op a separate
// whole-array traversal; repeated CSHIFT subexpressions reused by hand).
// The expression trees mirror the Fortran source exactly, so the numeric
// results validate against the reference interpreter bit-for-bit in
// float64.
func RunSWE(n, itmax int, m Model) (*Sim, Result) {
	s := New(n, m)

	pi := 3.14159265359
	tpi := pi + pi
	di := tpi / float64(n)
	dj := tpi / float64(n)
	dx := 100000.0
	dy := 100000.0
	fsdx := 4.0 / dx
	fsdy := 4.0 / dy
	alpha := 0.001
	aa := 1000000.0
	el := float64(n) * 100000.0
	pcf := pi * pi * aa * aa / (el * el)
	dt := 90.0

	add := func(x, y float64) float64 { return x + y }
	sub := func(x, y float64) float64 { return x - y }
	mul := func(x, y float64) float64 { return x * y }
	div := func(x, y float64) float64 { return x / y }
	by := func(k float64) func(float64) float64 { return func(x float64) float64 { return k * x } }

	// Initial conditions (not part of the measured kernel in cycles, but
	// charged like any other fieldwise ops).
	s.Init("psi", func(i, j int) float64 {
		return aa * math.Sin((float64(i)-0.5)*di) * math.Sin((float64(j)-0.5)*dj)
	})
	s.Init("p", func(i, j int) float64 {
		return float64(pcf*(math.Cos(2.0*(float64(i)-1)*di)+math.Cos(2.0*(float64(j)-1)*dj))) + 50000.0
	})
	// u = -(cshift(psi,2,1) - psi)*(n/el)*10 ; v analogous on dim 1.
	s.Shift("t", "psi", 2, 1)
	s.Bin("t", "t", "psi", sub)
	s.Scale("t", "t", by(float64(n)/el))
	s.Scale("u", "t", by(10.0))
	s.Scale("u", "u", func(x float64) float64 { return -x })
	s.Shift("t", "psi", 1, 1)
	s.Bin("t", "t", "psi", sub)
	s.Scale("t", "t", by(float64(n)/el))
	s.Scale("v", "t", by(10.0))
	s.Copy("uold", "u")
	s.Copy("vold", "v")
	s.Copy("pold", "p")

	tdt := dt
	for cycle := 0; cycle < itmax; cycle++ {
		// cu = 0.5*(p + cshift(p,1,-1))*u
		s.Shift("p1m", "p", 1, -1) // reused below in z's denominator
		s.Bin("t", "p", "p1m", add)
		s.Scale("t", "t", by(0.5))
		s.Bin("cu", "t", "u", mul)

		// cv = 0.5*(p + cshift(p,2,-1))*v
		s.Shift("p2m", "p", 2, -1) // reused below
		s.Bin("t", "p", "p2m", add)
		s.Scale("t", "t", by(0.5))
		s.Bin("cv", "t", "v", mul)

		// z = (fsdx*(v - cshift(v,1,-1)) - fsdy*(u - cshift(u,2,-1)))
		//     / (p + cshift(p,1,-1) + cshift(p,2,-1) + cshift(cshift(p,1,-1),2,-1))
		s.Shift("t", "v", 1, -1)
		s.Bin("t", "v", "t", sub)
		s.Scale("num", "t", by(fsdx))
		s.Shift("t", "u", 2, -1)
		s.Bin("t", "u", "t", sub)
		s.Scale("t", "t", by(fsdy))
		s.Bin("num", "num", "t", sub)
		s.Bin("den", "p", "p1m", add)
		s.Bin("den", "den", "p2m", add)
		s.Shift("t", "p1m", 2, -1)
		s.Bin("den", "den", "t", add)
		s.Bin("z", "num", "den", div)

		// h = p + 0.25*(u*u + cshift(u,1,1)^2) + 0.25*(v*v + cshift(v,2,1)^2)
		s.Shift("t", "u", 1, 1)
		s.Bin("t", "t", "t", mul)
		s.Bin("t2", "u", "u", mul)
		s.Bin("t", "t2", "t", add)
		s.Scale("t", "t", by(0.25))
		s.Bin("h", "p", "t", add)
		s.Shift("t", "v", 2, 1)
		s.Bin("t", "t", "t", mul)
		s.Bin("t2", "v", "v", mul)
		s.Bin("t", "t2", "t", add)
		s.Scale("t", "t", by(0.25))
		s.Bin("h", "h", "t", add)

		tdts8 := tdt / 8.0
		tdtsdx := tdt / dx
		tdtsdy := tdt / dy

		// unew = uold + tdts8*(z + cshift(z,2,1))
		//        *(cv + cshift(cv,1,1) + cshift(cshift(cv,1,1),2,-1) + cshift(cv,2,-1))
		//        - tdtsdx*(h - cshift(h,1,-1))
		s.Shift("t", "z", 2, 1)
		s.Bin("zs", "z", "t", add)
		s.Scale("zs", "zs", by(tdts8))
		s.Shift("cv11", "cv", 1, 1)
		s.Bin("cvs", "cv", "cv11", add)
		s.Shift("t", "cv11", 2, -1)
		s.Bin("cvs", "cvs", "t", add)
		s.Shift("t", "cv", 2, -1)
		s.Bin("cvs", "cvs", "t", add)
		s.Bin("t", "zs", "cvs", mul)
		s.Bin("unew", "uold", "t", add)
		s.Shift("t", "h", 1, -1)
		s.Bin("t", "h", "t", sub)
		s.Scale("t", "t", by(tdtsdx))
		s.Bin("unew", "unew", "t", sub)

		// vnew = vold - tdts8*(z + cshift(z,1,1))
		//        *(cu + cshift(cu,2,1) + cshift(cshift(cu,1,-1),2,1) + cshift(cu,1,-1))
		//        - tdtsdy*(h - cshift(h,2,-1))
		s.Shift("t", "z", 1, 1)
		s.Bin("zs", "z", "t", add)
		s.Scale("zs", "zs", by(tdts8))
		s.Shift("t", "cu", 2, 1)
		s.Bin("cus", "cu", "t", add)
		s.Shift("cu1m", "cu", 1, -1)
		s.Shift("t", "cu1m", 2, 1)
		s.Bin("cus", "cus", "t", add)
		s.Bin("cus", "cus", "cu1m", add)
		s.Bin("t", "zs", "cus", mul)
		s.Bin("vnew", "vold", "t", sub)
		s.Shift("t", "h", 2, -1)
		s.Bin("t", "h", "t", sub)
		s.Scale("t", "t", by(tdtsdy))
		s.Bin("vnew", "vnew", "t", sub)

		// pnew = pold - tdtsdx*(cshift(cu,1,1) - cu) - tdtsdy*(cshift(cv,2,1) - cv)
		s.Shift("t", "cu", 1, 1)
		s.Bin("t", "t", "cu", sub)
		s.Scale("t", "t", by(tdtsdx))
		s.Bin("pnew", "pold", "t", sub)
		s.Shift("t", "cv", 2, 1)
		s.Bin("t", "t", "cv", sub)
		s.Scale("t", "t", by(tdtsdy))
		s.Bin("pnew", "pnew", "t", sub)

		// Robert–Asselin filter: xold = x + alpha*(xnew - 2*x + xold).
		filter := func(old, cur, new string) {
			s.Scale("t", cur, by(2.0))
			s.Bin("t", new, "t", sub)
			s.Bin("t", "t", old, add)
			s.Scale("t", "t", by(alpha))
			s.Bin(old, cur, "t", add)
		}
		filter("uold", "u", "unew")
		filter("vold", "v", "vnew")
		filter("pold", "p", "pnew")
		s.Copy("u", "unew")
		s.Copy("v", "vnew")
		s.Copy("p", "pnew")
		tdt = dt + dt
	}

	return s, Result{Cycles: s.Cycles, Flops: s.Flops, Ops: s.Ops, N: n, Steps: itmax}
}
