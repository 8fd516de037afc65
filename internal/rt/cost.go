package rt

import (
	"math"

	"f90y/internal/shape"
)

// CommCost is the communication cycle model, in per-PE sequencer cycles,
// and this file is the one place that turns layouts into cycles. Grid
// shifts use the microcoded NEWS network: cheap per element, with a
// wire charge only for elements crossing a PE boundary. Everything
// irregular goes through the general router at a much higher per-element
// charge (§2.2: special-purpose communications "can be substantially
// faster than the worst-case router alternative"). Reductions combine a
// local sweep with a log-depth hypercube phase. A layout is priced the
// same whether a directive wrote it or it is the all-BLOCK default.
type CommCost struct {
	GridStartup   float64
	GridLocal     float64 // per element, intra-PE
	GridWire      float64 // per element crossing a PE face, per hop
	RouterStartup float64
	RouterPerElem float64
	ReduceStartup float64
	ReducePerElem float64
	HopCost       float64 // per hypercube dimension in combine trees
}

// DefaultCommCost is the calibrated CM/2 model.
var DefaultCommCost = CommCost{
	GridStartup:   150,
	GridLocal:     3.5,
	GridWire:      70,
	RouterStartup: 400,
	RouterPerElem: 60,
	ReduceStartup: 150,
	ReducePerElem: 2,
	HopCost:       25,
}

// RouterPass prices one general-router pass over a subgrid of sub
// elements: a realignment, a general move, a dead PE's remap.
func (k CommCost) RouterPass(sub int) float64 {
	return k.RouterStartup + float64(sub)*k.RouterPerElem
}

// Shift prices a shift by s along dimension d (0-based) between two
// arrays laid out as l: a local rotate of the subgrid plus wire traffic
// for the share of elements the layout's own shift model sends off-PE,
// per PE-grid step travelled (free for cyclic shifts that are a
// multiple of chunk*PEs, torus-minimal otherwise) — or a router pass of
// the same subgrid when that is cheaper, as the runtime would choose.
func (k CommCost) Shift(l shape.Layout, d, s int) (string, float64) {
	sub := float64(l.SubgridSize())
	frac, hops := l.ShiftCost(d, s)
	grid := k.GridStartup + sub*k.GridLocal + sub*frac*k.GridWire*hops
	if router := k.RouterPass(l.SubgridSize()); router < grid {
		return CommRouter, router
	}
	return CommGrid, grid
}

// Routed prices a permutation moving off elements between PEs and
// local elements within them, under the target layout: a pure-local
// permutation is one grid pass; anything off-PE pays router startup
// plus per-element router charges on the off-PE share, with the local
// share moved at grid cost. Charges are per-PE (the networks operate in
// parallel), over the PEs the target layout actually populates.
func (k CommCost) Routed(off, local int, lo shape.Layout) (string, float64) {
	pes := float64(max(lo.PEsUsed(), 1))
	if off == 0 {
		return CommGrid, k.GridStartup + float64(local)/pes*k.GridLocal
	}
	return CommRouter, k.RouterStartup + float64(off)/pes*k.RouterPerElem + float64(local)/pes*k.GridLocal
}

// Reduce prices a reduction of an array laid out as l to a scalar: a
// sweep of the subgrid, then the combine tree across the machine.
func (k CommCost) Reduce(l shape.Layout) float64 {
	return k.ReduceStartup + float64(l.SubgridSize())*k.ReducePerElem + k.tree(l)
}

// Spread prices a broadcast along a new dimension into an array laid
// out as l: a grid pass of the subgrid after the fan-out tree.
func (k CommCost) Spread(l shape.Layout) float64 {
	return k.GridStartup + float64(l.SubgridSize())*k.GridLocal + k.tree(l)
}

// Dot prices a dot product of two arrays laid out as l: the elementwise
// multiply rides the reduction's sweep.
func (k CommCost) Dot(l shape.Layout) float64 {
	return k.ReduceStartup + float64(l.SubgridSize())*(k.GridLocal+k.ReducePerElem) + k.tree(l)
}

// tree is the log-depth hypercube phase over the whole machine.
func (k CommCost) tree(l shape.Layout) float64 {
	return math.Log2(float64(l.PEs)) * k.HopCost
}
