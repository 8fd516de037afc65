// Package cm2 models the Connection Machine CM/2 in the slicewise
// programming model (§2.2): up to 2,048 processing elements, each a
// Weitek WTL3164 64-bit FPU programmed as a four-wide vector processor,
// driven synchronously by a sequencer fed from a SPARC front end.
//
// The machine executes partitioned programs: the host program runs on the
// host VM, computation blocks execute as PEAC routines over blockwise
// subgrids with a calibrated per-instruction cycle model, and
// communication goes through the CM runtime cost model. Execution is
// functionally exact (results match the reference interpreter) while
// cycles are accounted analytically per PE.
package cm2

import (
	"context"

	"f90y/internal/faults"
	"f90y/internal/fe"
	"f90y/internal/hostvm"
	"f90y/internal/obs"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// Control is the execution control plane for a run: fault injection,
// periodic checkpointing, resume from a snapshot, the cycle watchdog,
// the numeric plane and the executor's width. The zero value requests
// none of them; a nil *Control means the zero value.
type Control struct {
	// Faults drives injection across the host VM, the communication
	// layer, and node dispatch (nil disables injection).
	Faults *faults.Injector
	// Checkpoint is consulted at every top-level host boundary (ops and
	// top-level serial-DO iterations) and decides whether this one is
	// worth a snapshot: snap takes it — a copy of the whole store — so a
	// boundary the hook declines costs nothing. A non-nil error stops the
	// run at the boundary. Nil disables checkpointing.
	Checkpoint func(snap func() *rt.Checkpoint) error
	// Resume restores a snapshot before execution: the store, the
	// accumulated cycle attribution, and the host resume position.
	Resume *rt.Checkpoint
	// MaxCycles is the watchdog budget: when the modeled cycle total
	// (host + PE + communication) exceeds it, the run is killed
	// deterministically at the next host tick with an error wrapping
	// rt.ErrBudget. Zero disables the watchdog. Resuming a killed run
	// from its last checkpoint with a higher budget continues exactly
	// where the accumulators left off.
	MaxCycles float64
	// Numeric attaches the numeric-exception plane: PE float ops are
	// scanned for NaN/Inf production, which either traps (rt.ErrNumeric
	// with PE and instruction attribution) or is tallied per cycle
	// class. Nil disables the plane.
	Numeric *rt.Numeric
	// ExecWorkers shards every PEAC routine dispatch across a chunk
	// worker pool: 0 and 1 execute serially, n > 1 uses n workers, and
	// a negative value selects GOMAXPROCS. Results — store contents,
	// output, cycle totals, numeric tallies — are bit-exact and
	// invariant under the worker count; only simulator wall-clock
	// changes. The analytic cycle model is computed before dispatch and
	// is untouched by the fan-out. It is not a user's setting:
	// driver.Service.Run derives it for every run that leaves it zero,
	// and tests force a width through it.
	ExecWorkers int
}

// Machine is one CM/2 configuration.
type Machine struct {
	// PEs is the number of slicewise processing elements (2,048 on a full
	// 64K-processor CM/2). Must be a power of two.
	PEs int
	// ClockHz is the sequencer/Weitek clock (7 MHz).
	ClockHz float64
	// PECost is the PEAC instruction cycle model.
	PECost peac.CostModel
	// CommCost is the runtime communication model.
	CommCost rt.CommCost
	// HostCost is the front-end model.
	HostCost hostvm.Cost
}

// Default returns the full-size calibrated CM/2.
func Default() *Machine {
	return &Machine{
		PEs:      2048,
		ClockHz:  7e6,
		PECost:   peac.DefaultCost,
		CommCost: rt.DefaultCommCost,
		HostCost: hostvm.DefaultCost,
	}
}

// Result is the outcome of one program execution.
type Result struct {
	Output  []string
	Store   *rt.Store
	Stopped bool

	// ExecTotals is the node side: Flops, NodeCalls, PECycles and its
	// per-class, per-routine and per-line attributions, each of which
	// sums exactly to PECycles. Host and communication follow the same
	// rule: each map's values sum exactly to its total.
	rt.ExecTotals
	// Split is PECycles by source (per-dispatch setup, vector work,
	// degradation); Setup is zero on a target without Target.Setup.
	Split      Split
	HostCycles float64
	CommCycles float64
	CommCalls  int
	ClockHz    float64

	// CommClassCycles attributes CommCycles per runtime network
	// (rt.CommGrid, rt.CommRouter, rt.CommReduce).
	CommClassCycles map[string]float64
	// CommLineCycles attributes CommCycles per (source line, network
	// class) cell under the rt.CommRoutine pseudo-routine; its values
	// sum exactly to CommCycles. Merge with PELineCycles (see
	// rt.MergeLineMaps) for a whole-machine per-line profile.
	CommLineCycles map[rt.LineRef]float64
	// HostClassCycles attributes HostCycles per front-end activity
	// (hostvm.HostIssue, HostScalar, HostElem, HostDispatch, and
	// HostStall when stalls were injected).
	HostClassCycles map[string]float64

	// Faults reports what the fault plane injected and how the runtime
	// recovered; nil when the run had no injector attached.
	Faults *faults.Stats

	// Numeric is the numeric-exception plane's per-class NaN/Inf tally;
	// nil when no plane was attached (see Control.Numeric).
	Numeric *rt.Numeric
}

// TotalCycles is the modeled end-to-end cycle count; host, node, and
// communication time are serialized, as in the synchronous SIMD model.
func (r *Result) TotalCycles() float64 {
	return r.HostCycles + r.PECycles + r.CommCycles
}

// Seconds is the modeled wall time.
func (r *Result) Seconds() float64 { return r.TotalCycles() / r.ClockHz }

// GFLOPS is the modeled sustained rate.
func (r *Result) GFLOPS() float64 {
	s := r.Seconds()
	if s == 0 {
		return 0
	}
	return float64(r.Flops) / s / 1e9
}

// Target describes this CM/2 to the run core: one lane per PE, driven
// directly by the sequencer (no per-dispatch setup), charged for the
// layout's nominal subgrid.
func (m *Machine) Target() *Target {
	return &Target{
		Name: "cm2", Unit: "PE",
		Units: m.PEs, Lanes: 1, ClockHz: m.ClockHz,
		Subgrid: shape.Layout.SubgridSize,
		PECost:  m.PECost, CommCost: m.CommCost, HostCost: m.HostCost,
	}
}

// RunCtx executes a partitioned program on the machine: Target.Run with
// this machine's Target (see there for store, rec, ctl and ctx). The
// Machine is never mutated by a run, so one *Machine may serve any
// number of concurrent RunCtx calls.
func (m *Machine) RunCtx(ctx context.Context, prog *fe.Program, store *rt.Store, rec obs.Recorder, ctl *Control) (*Result, error) {
	return m.Target().Run(ctx, prog, store, rec, ctl)
}
