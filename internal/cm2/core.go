package cm2

import (
	"context"
	"fmt"

	"f90y/internal/faults"
	"f90y/internal/fe"
	"f90y/internal/hostvm"
	"f90y/internal/nir"
	"f90y/internal/obs"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
	"f90y/internal/source"
)

// The run core: the one host loop, control plane, cycle attribution and
// telemetry under every machine model. §5.3.1's retarget "retains the
// majority of its structure and, therefore, its specification", so a
// machine is a Target value handed to this core, not a copy of it (see
// DESIGN.md "Machine core and targets").

// DegradeClass is the PE cycle class charged for graceful degradation:
// remapping a dead unit's subgrid onto its buddy and the extra pass
// every subsequent dispatch pays while units are dead (the synchronous
// machine gates on its slowest unit).
const DegradeClass = "degrade"

// SetupClass is the PE cycle class of Target.Setup. The class and the
// Checkpoint.Extra keys below keep the CM-5's names — it is the one
// target with a node processor so far — because reports and snapshots
// written before the core existed carry them.
const SetupClass = "sparc-issue"

const (
	extraSetup   = "sparc-cycles"
	extraVector  = "vu-cycles"
	extraDegrade = "degrade-cycles"
)

// Target is everything machine-specific about a run. The core never
// asks which machine it is driving; it only reads these fields.
type Target struct {
	// Name tags checkpoints and prefixes error text ("cm2", "cm5");
	// Unit is the noun for one processing unit in reports and error
	// text ("PE", "node").
	Name, Unit string
	// Units is the number of processing units a shape is distributed
	// over; each drives Lanes vector lanes over its subgrid.
	Units, Lanes int
	ClockHz      float64
	// Setup is the per-dispatch issue cost a unit pays before its lanes
	// start (the CM-5 node SPARC); nil when the sequencer drives the
	// lanes directly.
	Setup func(r *peac.Routine) float64
	// Subgrid maps a dispatch layout to the per-unit element count the
	// cycle model charges for.
	Subgrid  func(shape.Layout) int
	PECost   peac.CostModel
	CommCost rt.CommCost
	HostCost hostvm.Cost
}

// Split is Result.PECycles by source: per-dispatch setup (the CM-5's
// node SPARC), vector work, and degradation. Setup stays zero on a
// target without Target.Setup.
type Split struct{ Setup, Vector, Degrade float64 }

// run is the state of one execution.
type run struct {
	t     *Target
	ctx   context.Context
	store *rt.Store
	comm  *rt.Comm
	res   *Result
	rec   obs.Recorder
	inj   *faults.Injector
	exec  ExecOpts          // per-run executor options; Subgrid is set per dispatch
	cells []peac.LineCycles // dispatch's pricing buffer, reused
}

// Run executes a partitioned program on the target under ctx and a
// control plane (see Control; nil is the zero value), reporting
// telemetry to rec (nil costs one branch per dispatch). A nil store
// means a fresh one initialized from the program's symbols.
// Cancellation is checked at every host op and loop-iteration boundary
// and surfaces as rt.ErrCanceled; an injected fatal fault as
// faults.ErrFatal, restartable from the last checkpoint via ctl.Resume.
// The Target is never mutated, so one value may serve concurrent runs.
func (t *Target) Run(ctx context.Context, prog *fe.Program, store *rt.Store, rec obs.Recorder, ctl *Control) (*Result, error) {
	if ctl == nil {
		ctl = &Control{}
	}
	own := store == nil
	if own {
		store = rt.NewStore(prog.Syms)
	}
	r := &run{
		t: t, ctx: ctx, store: store, rec: rec,
		inj:  ctl.Faults,
		comm: &rt.Comm{Store: store, PEs: t.Units * t.Lanes, Cost: t.CommCost, Faults: ctl.Faults},
		res: &Result{Store: store, ClockHz: t.ClockHz, Numeric: ctl.Numeric, ExecTotals: rt.ExecTotals{
			PEClassCycles:   map[string]float64{},
			PERoutineCycles: map[string]float64{},
			PELineCycles:    map[rt.LineRef]float64{},
		}},
		exec: ExecOpts{PEs: t.Units, Rec: rec, Num: ctl.Numeric, Workers: ctl.ExecWorkers},
	}
	res, comm := r.res, r.comm
	if rec != nil {
		comm.OpCalls = map[string]float64{}
	}

	hctl := &hostvm.Ctl{
		Faults: ctl.Faults, MaxCycles: ctl.MaxCycles,
		ExtraCycles: func() float64 { return res.PECycles + comm.Cycles },
	}
	if ctl.Checkpoint != nil {
		// One snap closure serves every boundary of the run, so one the
		// hook declines allocates nothing.
		var at *hostvm.VM
		var b rt.Boundary
		snap := func() *rt.Checkpoint { return r.snapshot(at, b) }
		hctl.Checkpoint = func(vm *hostvm.VM, next int, inLoop bool, iterDone int) error {
			at, b = vm, rt.Boundary{Machine: t.Name, NextOp: next, InLoop: inLoop, IterDone: iterDone}
			return ctl.Checkpoint(snap)
		}
	}
	if ctl.Resume != nil {
		if err := r.resume(ctl.Resume, hctl); err != nil {
			return nil, err
		}
	}

	hooks := hostvm.Hooks{
		Dispatch: r.dispatch,
		Comm:     func(mv nir.Move) error { return comm.ExecMove(mv) },
	}
	vm, err := hostvm.RunCtx(ctx, prog, store, t.HostCost, hooks, hctl)
	if err != nil {
		if own {
			store.Release() // no Result carries it out
		}
		return nil, err
	}
	res.Output = vm.Output
	res.Stopped = vm.Stopped()
	res.HostCycles = vm.Cycles
	res.CommCycles = comm.Cycles
	res.CommCalls = comm.Calls
	res.HostClassCycles = vm.ClassCycles()
	res.CommClassCycles = map[string]float64{}
	for _, cl := range rt.CommClasses {
		res.CommClassCycles[cl] = comm.ClassCycles[cl]
	}
	res.CommLineCycles = rt.CopyLineMap(comm.LineCycles)
	if t.Setup != nil {
		// Setup time is its own attribution class, so the breakdown
		// sums exactly to PECycles; per line it is charged as it accrues.
		res.PEClassCycles[SetupClass] = res.Split.Setup
	}
	res.Faults = r.inj.Stats()
	r.emit()
	return res, nil
}

// snapshot captures a consistent machine state at a host boundary; the
// Split travels in Checkpoint.Extra.
func (r *run) snapshot(vm *hostvm.VM, b rt.Boundary) *rt.Checkpoint {
	ck := rt.SnapshotBoundary(r.store, r.comm, b,
		rt.HostState{Output: vm.Output, Cycles: vm.Cycles, ClassCycles: vm.ClassCycles()},
		r.res.ExecTotals)
	sp := r.res.Split
	ck.Extra = map[string]float64{extraSetup: sp.Setup, extraVector: sp.Vector, extraDegrade: sp.Degrade}
	return ck
}

// resume restores a snapshot into the store, the comm layer, the
// accumulators, and the host control plane, so the continued run picks
// up every total where the snapshot left it. A snapshot of another
// machine is rejected before anything is touched: its cycle buckets
// mean something else.
func (r *run) resume(ck *rt.Checkpoint, hctl *hostvm.Ctl) error {
	if ck.Machine != r.t.Name {
		return fmt.Errorf("%s: resume: %w: snapshot of a %q run", r.t.Name, rt.ErrCkptMachine, ck.Machine)
	}
	tot, err := rt.ResumeBoundary(ck, r.store, r.comm)
	if err != nil {
		return fmt.Errorf("%s: resume: %w", r.t.Name, err)
	}
	res := r.res
	res.ExecTotals = tot
	res.Split = Split{Setup: ck.Extra[extraSetup], Vector: ck.Extra[extraVector], Degrade: ck.Extra[extraDegrade]}
	if res.Split.Degrade != 0 {
		// CM-5 snapshots from before the core carry degradation in
		// Extra only, not in the class map.
		res.PEClassCycles[DegradeClass] = res.Split.Degrade
	}
	hctl.SetResume(ck)
	return nil
}

// emit reports the execution result as counters.
func (r *run) emit() {
	rec, res := r.rec, r.res
	if rec == nil {
		return
	}
	obs.Add(rec, "exec/host-cycles", res.HostCycles)
	obs.Add(rec, "exec/pe-cycles", res.PECycles)
	obs.Add(rec, "exec/comm-cycles", res.CommCycles)
	obs.Add(rec, "exec/flops", float64(res.Flops))
	obs.Add(rec, "exec/node-calls", float64(res.NodeCalls))
	obs.Add(rec, "exec/comm-calls", float64(res.CommCalls))
	if r.t.Setup != nil {
		obs.Add(rec, "exec/sparc-cycles", res.Split.Setup)
		obs.Add(rec, "exec/vu-cycles", res.Split.Vector)
	}
	add := func(prefix string, cycles map[string]float64) {
		for k, v := range cycles {
			obs.Add(rec, prefix+k, v)
		}
	}
	add("exec/pe/", res.PEClassCycles)
	add("exec/comm/", res.CommClassCycles)
	add("exec/host/", res.HostClassCycles)
	add("exec/routine/", res.PERoutineCycles)
	add("rt/comm/", r.comm.OpCalls)
	for why, n := range r.store.Materialized {
		obs.Add(rec, "rt/shift-view/materialized/"+why, float64(n))
	}
	obs.Add(rec, "rt/arena/get", float64(r.store.ArenaGets))
	obs.Add(rec, "rt/arena/reuse", float64(r.store.ArenaReuses))
	if res.Numeric != nil {
		for cl, n := range res.Numeric.NaN {
			obs.Add(rec, "exec/numeric/nan/"+cl, float64(n))
		}
		for cl, n := range res.Numeric.Inf {
			obs.Add(rec, "exec/numeric/inf/"+cl, float64(n))
		}
	}
}

// dispatch runs one PEAC routine over its shape: every unit pays the
// setup cost, then drives its lanes over an equal share of its subgrid.
// The cycle model is charged analytically before the routine executes
// functionally over the stored arrays (optionally sharded across a
// chunk worker pool, Control.ExecWorkers), so attribution never depends
// on how the simulator ran it.
func (r *run) dispatch(p *peac.Routine, over shape.Shape) error {
	t, res := r.t, r.res
	if over == nil {
		return fmt.Errorf("%s: node routine %s without a shape: %w", t.Name, p.Name, ErrDispatch)
	}
	layout := shape.Distribute(over, t.Units, p.Dist)
	sub := t.Subgrid(layout)
	perLane := (sub + t.Lanes - 1) / t.Lanes
	setup := 0.0
	if t.Setup != nil {
		setup = t.Setup(p)
	}
	// One walk of the body's issue groups prices the dispatch and
	// attributes it by class and by line.
	iters := (perLane + peac.VectorWidth - 1) / peac.VectorWidth
	r.cells = t.PECost.BodyCyclesByLine(r.cells, p.Body, p.Pos)
	classes := peac.ByClass(r.cells)
	vector := float64(iters * classes.Total())
	cyc := setup + vector
	if r.inj != nil {
		if err := r.injectDispatch(p, sub, cyc); err != nil {
			return err
		}
	}
	res.Split.Setup += setup
	res.Split.Vector += vector
	res.PECycles += cyc
	res.PERoutineCycles[p.Name] += cyc
	if t.Setup != nil {
		res.PELineCycles[lineRef(p, p.Pos, SetupClass)] += setup
	}
	if iters > 0 {
		for cl, n := range classes {
			if n != 0 {
				res.PEClassCycles[peac.CycleClass(cl).String()] += float64(n * iters)
			}
		}
		for _, cell := range r.cells {
			if cell.Cycles != 0 {
				res.PELineCycles[lineRef(p, cell.Pos, cell.Class.String())] += float64(cell.Cycles * iters)
			}
		}
	}
	res.Flops += int64(p.FlopsPerIteration()) * int64(iters) * int64(layout.PEsUsed()*t.Lanes)
	res.NodeCalls++
	obs.Observe(r.rec, "cm2/dispatch-cycles", cyc)
	o := r.exec
	o.Subgrid = sub
	return ExecRoutineOpts(r.ctx, p, over, r.store, o)
}

// injectDispatch applies the fault plane to one node dispatch. A unit
// killed here either aborts the run (degradation disabled: a clean
// error wrapping ErrDispatch and faults.ErrPEDead) or degrades
// gracefully: the dead unit's subgrid is remapped onto a buddy —
// charged one router transfer of the subgrid — and every later
// dispatch pays one extra pass (cyc), because the synchronous machine
// gates on its slowest unit and the buddy now runs two subgrids back to
// back. Execution stays functionally exact: the model charges cycles,
// the data motion is unaffected.
func (r *run) injectDispatch(p *peac.Routine, sub int, cyc float64) error {
	t := r.t
	charge := func(c float64) {
		r.res.Split.Degrade += c
		r.res.PECycles += c
		r.res.PEClassCycles[DegradeClass] += c
		r.res.PELineCycles[lineRef(p, p.Pos, DegradeClass)] += c
	}
	for _, u := range r.inj.DispatchTick(t.Units) {
		if !r.inj.Degrade() {
			return fmt.Errorf("%s: dispatch of %s: %w: %s %d: %w",
				t.Name, p.Name, ErrDispatch, t.Unit, u, faults.ErrPEDead)
		}
		charge(t.CommCost.RouterPass(sub))
		r.inj.NoteDegraded(u)
	}
	if r.inj.DeadCount() > 0 {
		charge(cyc)
	}
	return nil
}

// lineRef builds the attribution key for cycles modeled in routine r at
// source position pos under a cycle class name.
func lineRef(r *peac.Routine, pos source.Pos, class string) rt.LineRef {
	return rt.LineRef{Routine: r.Name, File: pos.File, Line: pos.Line, Class: class}
}
