// Package starlisp models the hand-coded *Lisp baseline of §6: the SWE
// benchmark "running under fieldwise mode peaked at 1.89 gigaflops".
//
// Under the fieldwise programming model, every elemental operation is a
// separate whole-array traversal dispatched through the virtual-processor
// runtime: operands stream through the transposer between the bit-serial
// processor memory layout and the Weitek datapath, and nothing fuses — no
// cross-operation register reuse, no load chaining, no multiply-add
// pairing. The package provides a tiny *Lisp-style array VM with a
// calibrated fieldwise cost model, and the hand-coded SWE program written
// against it (mirroring exactly the computation of workload.SWE so its
// numeric results can be validated against the reference interpreter).
package starlisp

import (
	"fmt"
	"math"
)

// Model is the fieldwise cost model, in sequencer cycles.
type Model struct {
	PEs     int     // Weitek FPUs behind the transposer (2,048)
	ClockHz float64 // 7 MHz
	// OpCycles is the per-vector-group cost of one elemental operation's
	// traversal: two operand fetches and one store through the
	// transposer plus the arithmetic — fieldwise layout makes each
	// leg slower than slicewise (the transposer charge).
	OpCycles float64
	// CallOverhead is the per-operation dispatch cost of the VP runtime.
	CallOverhead float64
	// ShiftPerGroup is the per-vector-group cost of a NEWS grid shift.
	ShiftPerGroup float64
	// ShiftStartup is the per-shift dispatch cost.
	ShiftStartup float64
}

// DefaultModel is calibrated so the hand-coded SWE lands near the paper's
// 1.89 GF on the 1024x1024 problem: each fieldwise traversal costs about
// 1.7x its slicewise naive equivalent (transposer plus VP bookkeeping),
// and no fusion ever amortizes dispatch.
var DefaultModel = Model{
	PEs:           2048,
	ClockHz:       7e6,
	OpCycles:      24, // per 4-element group: load+load+op+store traversal
	CallOverhead:  100,
	ShiftPerGroup: 14,
	ShiftStartup:  160,
}

// Sim is one fieldwise *Lisp execution.
type Sim struct {
	Model
	N      int // grid edge: arrays are N x N, column-major
	Cycles float64
	Flops  int64
	Ops    int
	pvars  map[string][]float64
}

// New creates a simulator for an n-by-n VP set.
func New(n int, m Model) *Sim {
	return &Sim{Model: m, N: n, pvars: map[string][]float64{}}
}

// PVar returns (allocating if needed) a parallel variable's storage.
func (s *Sim) PVar(name string) []float64 {
	if v, ok := s.pvars[name]; ok {
		return v
	}
	v := make([]float64, s.N*s.N)
	s.pvars[name] = v
	return v
}

// groups is the per-PE vector-group count of one traversal.
func (s *Sim) groups() float64 {
	sub := (s.N*s.N + s.PEs - 1) / s.PEs
	return float64((sub + 3) / 4)
}

// chargeOp accounts one elemental whole-array operation.
func (s *Sim) chargeOp(flopsPerElem int) {
	s.Ops++
	s.Cycles += s.CallOverhead + float64(s.groups()*s.OpCycles)
	s.Flops += int64(flopsPerElem * s.N * s.N)
}

// Bin applies dst = f(a, b) elementwise as one fieldwise operation.
func (s *Sim) Bin(dst, a, b string, f func(x, y float64) float64) {
	d, x, y := s.PVar(dst), s.PVar(a), s.PVar(b)
	for i := range d {
		d[i] = f(x[i], y[i])
	}
	s.chargeOp(1)
}

// Scale applies dst = a * k (or any unary op via f) elementwise.
func (s *Sim) Scale(dst, a string, f func(x float64) float64) {
	d, x := s.PVar(dst), s.PVar(a)
	for i := range d {
		d[i] = f(x[i])
	}
	s.chargeOp(1)
}

// Copy is dst = a; it moves data without floating-point work.
func (s *Sim) Copy(dst, a string) {
	copy(s.PVar(dst), s.PVar(a))
	s.Ops++
	s.Cycles += s.CallOverhead + float64(s.groups()*s.OpCycles)
}

// Shift is dst = CSHIFT(a, dim, amt) over the NEWS grid.
func (s *Sim) Shift(dst, a string, dim, amt int) {
	d, x := s.PVar(dst), s.PVar(a)
	n := s.N
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			si, sj := i, j
			if dim == 1 {
				si = ((i+amt)%n + n) % n
			} else {
				sj = ((j+amt)%n + n) % n
			}
			d[i+j*n] = x[si+sj*n]
		}
	}
	s.Ops++
	s.Cycles += s.ShiftStartup + float64(s.groups()*s.ShiftPerGroup*math.Abs(float64(amt)))
}

// Init fills a parallel variable from a coordinate function (self-address
// computation is cheap and not part of the measured kernel).
func (s *Sim) Init(name string, f func(i, j int) float64) {
	d := s.PVar(name)
	n := s.N
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			d[i+j*n] = f(i+1, j+1)
		}
	}
}

// Result summarizes a run.
type Result struct {
	Cycles float64
	Flops  int64
	Ops    int
	N      int
	Steps  int
}

// Seconds is modeled wall time.
func (r Result) Seconds(clockHz float64) float64 { return r.Cycles / clockHz }

// GFLOPS is the modeled sustained rate.
func (r Result) GFLOPS(clockHz float64) float64 {
	return float64(r.Flops) / r.Seconds(clockHz) / 1e9
}

func (r Result) String() string {
	return fmt.Sprintf("starlisp swe n=%d steps=%d ops=%d cycles=%.0f", r.N, r.Steps, r.Ops, r.Cycles)
}
