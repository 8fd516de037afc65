// Package hostvm interprets the FE host representation against the CM
// runtime store. It stands in for the SPARC front end of §5.2: serial
// code, scalar arithmetic, front-end element accesses into CM data, and
// the IFIFO pushes that dispatch PEAC node procedures. Front-end work is
// charged against a simple cost model — the paper's prototype also used
// "a simple memory-to-memory load/store model" on the host, whose time is
// a negligible fraction of the profile as problem size grows.
package hostvm

import (
	"context"
	"fmt"
	"math"
	"strings"

	"f90y/internal/faults"
	"f90y/internal/fe"
	"f90y/internal/nir"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// Cost is the front-end cycle model.
type Cost struct {
	ScalarOp        float64 // per evaluated operator
	ElemAccess      float64 // per front-end access to a CM array element
	DispatchStart   float64 // per PEAC routine call (FIFO setup)
	DispatchPerArg  float64 // per parameter pushed over the IFIFO
	StatementIssued float64 // fixed decode cost per host operation
}

// DefaultCost is the calibrated host model.
var DefaultCost = Cost{
	ScalarOp:        1,
	ElemAccess:      30,
	DispatchStart:   150,
	DispatchPerArg:  8,
	StatementIssued: 2,
}

// Hooks connect the host VM to the machine model: node dispatch and
// runtime communication are performed by the caller (internal/cm2).
type Hooks struct {
	Dispatch func(r *peac.Routine, over shape.Shape) error
	Comm     func(m nir.Move) error
}

// Host cycle classes: every front-end charge is attributed to one of
// these activities, and the class values sum exactly to VM.Cycles.
const (
	HostIssue    = "issue"       // fixed decode cost per host operation
	HostScalar   = "scalar"      // front-end scalar arithmetic
	HostElem     = "elem-access" // front-end touches of CM array elements
	HostDispatch = "dispatch"    // IFIFO setup and argument pushes
	HostStall    = "stall"       // injected front-end stalls (fault plane)
)

// HostClasses lists the host cycle classes. HostStall appears in
// ClassCycles only when stalls were actually injected, so fault-free
// reports are unchanged.
var HostClasses = []string{HostIssue, HostScalar, HostElem, HostDispatch, HostStall}

// Ctl is the execution control plane: fault injection, periodic
// checkpointing, the cycle watchdog, and resume from a snapshot. The
// zero value requests none of them.
type Ctl struct {
	// Faults injects front-end stalls and scheduled fatal faults at
	// every host tick (nil disables injection).
	Faults *faults.Injector
	// Checkpoint is offered the VM at every completed top-level boundary
	// (top-level ops and top-level serial-DO iterations) and decides for
	// itself whether this one is worth a snapshot: every op before next
	// has completed; when inLoop is set, op next is a serial DO
	// completed through iteration iterDone. Nil disables checkpointing.
	Checkpoint func(vm *VM, next int, inLoop bool, iterDone int) error

	// MaxCycles is the watchdog budget: when the modeled cycle total
	// (host cycles plus ExtraCycles) exceeds it, the run is killed
	// deterministically at the next host tick with an error wrapping
	// rt.ErrBudget. Zero disables the watchdog.
	MaxCycles float64
	// ExtraCycles reports the non-host cycle accumulators (PE and
	// communication time) so the budget covers the whole modeled
	// machine, not just the front end. Nil counts host cycles only.
	ExtraCycles func() float64

	// Resume position (from a checkpoint): skip completed top-level
	// ops, and when ResumeInLoop is set re-enter op ResumeOp's serial
	// DO at iteration ResumeIter+1.
	ResumeOp     int
	ResumeInLoop bool
	ResumeIter   int
	// ResumeOutput pre-seeds the accumulated program output.
	ResumeOutput []string
	// ResumeClassCycles pre-seeds the per-class host cycle buckets so
	// a resumed run's totals continue from the snapshot.
	ResumeClassCycles map[string]float64
}

// SetResume points the control plane at a snapshot's resume position
// and pre-seeded host state. It is the single place the checkpoint
// fields map onto the Resume* knobs, shared by every machine model.
func (c *Ctl) SetResume(ck *rt.Checkpoint) {
	c.ResumeOp = ck.NextOp
	c.ResumeInLoop = ck.InLoop
	c.ResumeIter = ck.IterDone
	c.ResumeOutput = ck.Output
	c.ResumeClassCycles = ck.HostClassCycles
}

// VM is one host execution.
type VM struct {
	Store  *rt.Store
	Cost   Cost
	Hooks  Hooks
	Cycles float64
	Output []string

	// Per-class cycle attribution; IssueCycles + ScalarCycles +
	// ElemCycles + DispatchCycles + StallCycles == Cycles exactly.
	IssueCycles    float64
	ScalarCycles   float64
	ElemCycles     float64
	DispatchCycles float64
	StallCycles    float64

	runCtx context.Context
	done   <-chan struct{} // runCtx.Done(), nil when uncancellable
	ctl    *Ctl

	frames  []frame
	stopped bool
	steps   int
	limit   int
}

// charge adds cyc to one attribution bucket, keeping Cycles as the
// re-summed total so the buckets always sum exactly to it.
func (vm *VM) charge(bucket *float64, cyc float64) {
	*bucket += cyc
	vm.Cycles = vm.IssueCycles + vm.ScalarCycles + vm.ElemCycles + vm.DispatchCycles + vm.StallCycles
}

// ClassCycles returns the per-class attribution keyed by HostClasses.
// The stall class appears only when stalls were injected, keeping
// fault-free reports bit-identical to builds without the fault plane.
func (vm *VM) ClassCycles() map[string]float64 {
	m := map[string]float64{
		HostIssue:    vm.IssueCycles,
		HostScalar:   vm.ScalarCycles,
		HostElem:     vm.ElemCycles,
		HostDispatch: vm.DispatchCycles,
	}
	if vm.StallCycles != 0 {
		m[HostStall] = vm.StallCycles
	}
	return m
}

type frame struct {
	s   shape.Shape
	idx int // current coordinate (serial shapes are rank 1)
}

type stopSignal struct{}

// RunCtx interprets a partitioned program under a context and an
// execution control plane. Cancellation and deadline expiry are checked
// at every op and loop-iteration boundary and surface promptly as an
// error wrapping rt.ErrCanceled; an uncancellable context (Done() ==
// nil, e.g. context.Background()) costs one nil check per boundary. A
// nil ctl is the zero Ctl: no injection, no checkpoints, no budget.
func RunCtx(ctx context.Context, prog *fe.Program, store *rt.Store, cost Cost, hooks Hooks, ctl *Ctl) (vm *VM, err error) {
	if ctl == nil {
		ctl = &Ctl{}
	}
	vm = &VM{Store: store, Cost: cost, Hooks: hooks, runCtx: ctx, done: ctx.Done(), ctl: ctl, limit: 500_000_000}
	vm.Output = append(vm.Output, ctl.ResumeOutput...)
	for cl, v := range ctl.ResumeClassCycles {
		switch cl {
		case HostIssue:
			vm.charge(&vm.IssueCycles, v)
		case HostScalar:
			vm.charge(&vm.ScalarCycles, v)
		case HostElem:
			vm.charge(&vm.ElemCycles, v)
		case HostDispatch:
			vm.charge(&vm.DispatchCycles, v)
		case HostStall:
			vm.charge(&vm.StallCycles, v)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopSignal); ok {
				vm.stopped = true
				err = nil
				return
			}
			panic(r)
		}
	}()
	err = vm.execTop(prog.Ops)
	return vm, err
}

// Stopped reports whether the program ended via STOP.
func (vm *VM) Stopped() bool { return vm.stopped }

// execTop runs the program's top-level op sequence: it honours the
// resume position and offers a checkpoint boundary after every
// top-level op (and, inside top-level serial DO loops, after every
// iteration).
func (vm *VM) execTop(ops []fe.Op) error {
	for i := vm.ctl.ResumeOp; i < len(ops); i++ {
		op := ops[i]
		if ds, ok := op.(fe.DoSerial); ok {
			// Mirror execOp's decode charge, then run the loop with
			// iteration-granular boundaries. When resuming inside this
			// loop the decode charge is already in the snapshot's
			// buckets, so it must not be re-ticked.
			resume := i == vm.ctl.ResumeOp && vm.ctl.ResumeInLoop
			if !resume {
				if err := vm.tick(); err != nil {
					return err
				}
			}
			if err := vm.doSerial(ds, resume, i); err != nil {
				return err
			}
		} else if err := vm.execOp(op); err != nil {
			return err
		}
		if err := vm.boundary(i+1, false, 0); err != nil {
			return err
		}
	}
	return nil
}

// boundary marks one completed top-level unit of work and offers it to
// the checkpoint hook.
func (vm *VM) boundary(next int, inLoop bool, iterDone int) error {
	if ckpt := vm.ctl.Checkpoint; ckpt != nil {
		if err := ckpt(vm, next, inLoop, iterDone); err != nil {
			return fmt.Errorf("hostvm: checkpoint at op %d: %w", next, err)
		}
	}
	return nil
}

func (vm *VM) exec(ops []fe.Op) error {
	for _, op := range ops {
		if err := vm.execOp(op); err != nil {
			return err
		}
	}
	return nil
}

func (vm *VM) tick() error {
	vm.steps++
	if vm.steps > vm.limit {
		return fmt.Errorf("hostvm: step limit (%d) exceeded: %w", vm.limit, rt.ErrBudget)
	}
	if vm.done != nil {
		select {
		case <-vm.done:
			return fmt.Errorf("hostvm: at op boundary %d: %w", vm.steps, rt.Canceled(vm.runCtx))
		default:
		}
	}
	vm.charge(&vm.IssueCycles, vm.Cost.StatementIssued)
	stall, err := vm.ctl.Faults.HostTick()
	if stall != 0 {
		vm.charge(&vm.StallCycles, stall)
	}
	if err != nil {
		return fmt.Errorf("hostvm: %w", err)
	}
	if max := vm.ctl.MaxCycles; max > 0 {
		total := vm.Cycles
		if vm.ctl.ExtraCycles != nil {
			total += vm.ctl.ExtraCycles()
		}
		if total > max {
			return fmt.Errorf("hostvm: %.0f modeled cycles exceed the %.0f-cycle budget at host step %d: %w",
				total, max, vm.steps, rt.ErrBudget)
		}
	}
	return nil
}

// ctx builds the evaluation context carrying the serial-loop coordinate
// frames.
func (vm *VM) ctx() *rt.EvalCtx {
	c := &rt.EvalCtx{Store: vm.Store}
	c.Local = func(s shape.Shape, dim int) (int, bool) {
		if dim != 1 {
			return 0, false
		}
		for i := len(vm.frames) - 1; i >= 0; i-- {
			if shape.Equal(vm.frames[i].s, s) {
				return vm.frames[i].idx, true
			}
		}
		return 0, false
	}
	return c
}

// bindLocals resolves the serial-loop coordinates in the arguments of a
// move's runtime intrinsics (a shift amount, a boundary, a dimension
// naming an enclosing DO index) to constants: only the VM knows the loop
// frames, and the communication layer evaluates those arguments with no
// iteration of its own. A general move iterates for itself and is left
// alone, as is every move outside a serial loop.
func (vm *VM) bindLocals(m nir.Move) nir.Move {
	if len(vm.frames) == 0 {
		return m
	}
	local := vm.ctx().Local
	bind := func(v nir.Value) nir.Value {
		if lu, ok := v.(nir.LocalUnder); ok {
			if c, ok := local(lu.S, lu.Dim); ok {
				return nir.IntConst(int64(c))
			}
		}
		return v
	}
	moves := append([]nir.GuardedMove(nil), m.Moves...)
	for i, g := range moves {
		if _, ok := g.Src.(nir.FcnCall); ok {
			moves[i].Src = nir.RewriteValues(g.Src, bind)
		}
	}
	m.Moves = moves
	return m
}

// eval computes a scalar NIR value on the host, charging cycles.
func (vm *VM) eval(v nir.Value) (float64, nir.ScalarKind, error) {
	c := vm.ctx()
	val, kind, err := rt.Eval(v, c)
	vm.charge(&vm.ScalarCycles, float64(c.Ops)*vm.Cost.ScalarOp)
	// Front-end touches of CM data are expensive.
	elems := 0
	nir.WalkValues(v, func(x nir.Value) {
		if _, ok := x.(nir.AVar); ok {
			elems++
		}
	})
	vm.charge(&vm.ElemCycles, float64(elems)*vm.Cost.ElemAccess)
	return val, kind, err
}

func (vm *VM) execOp(op fe.Op) error {
	if err := vm.tick(); err != nil {
		return err
	}
	switch op := op.(type) {
	case fe.Assign:
		return vm.assign(op)
	case fe.CallNode:
		vm.charge(&vm.DispatchCycles, vm.Cost.DispatchStart+float64(len(op.Routine.Params))*vm.Cost.DispatchPerArg)
		return vm.Hooks.Dispatch(op.Routine, op.Over)
	case fe.Comm:
		return vm.Hooks.Comm(vm.bindLocals(op.Move))
	case fe.If:
		c, _, err := vm.eval(op.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return vm.exec(op.Then)
		}
		return vm.exec(op.Else)
	case fe.While:
		for {
			c, _, err := vm.eval(op.Cond)
			if err != nil {
				return err
			}
			if c == 0 {
				return nil
			}
			if err := vm.exec(op.Body); err != nil {
				return err
			}
			if err := vm.tick(); err != nil {
				return err
			}
		}
	case fe.DoSerial:
		return vm.doSerial(op, false, -1)
	case fe.Print:
		return vm.print(op)
	case fe.Stop:
		panic(stopSignal{})
	}
	return fmt.Errorf("hostvm: unknown op %T", op)
}

// doSerial runs one serial DO. topIdx >= 0 marks a top-level loop: each
// completed iteration is a checkpoint boundary, and resume restarts at
// the snapshot's iteration + 1.
func (vm *VM) doSerial(op fe.DoSerial, resume bool, topIdx int) error {
	iv, ok := op.S.(shape.Interval)
	if !ok {
		return fmt.Errorf("hostvm: serial iteration over non-interval %v", op.S)
	}
	lo := iv.Lo
	if resume {
		lo = vm.ctl.ResumeIter + 1
	}
	vm.frames = append(vm.frames, frame{s: op.S})
	fi := len(vm.frames) - 1
	for i := lo; i <= iv.Hi; i++ {
		vm.frames[fi].idx = i
		if err := vm.exec(op.Body); err != nil {
			return err
		}
		if err := vm.tick(); err != nil {
			return err
		}
		if topIdx >= 0 {
			if err := vm.boundary(topIdx, true, i); err != nil {
				return err
			}
		}
	}
	vm.frames = vm.frames[:fi]
	return nil
}

func (vm *VM) assign(op fe.Assign) error {
	if op.Mask != nil {
		m, _, err := vm.eval(op.Mask)
		if err != nil {
			return err
		}
		if m == 0 {
			return nil
		}
	}
	val, _, err := vm.eval(op.Src)
	if err != nil {
		return err
	}
	switch tgt := op.Tgt.(type) {
	case nir.SVar:
		if _, ok := vm.Store.Scalars[tgt.Name]; !ok {
			return fmt.Errorf("hostvm: store to undefined scalar %q", tgt.Name)
		}
		vm.Store.SetScalar(tgt.Name, val)
		return nil
	case nir.AVar:
		arr, ok := vm.Store.Arrays[tgt.Name]
		if !ok {
			return fmt.Errorf("hostvm: undefined array %q", tgt.Name)
		}
		sub, ok := tgt.Field.(nir.Subscript)
		if !ok {
			return fmt.Errorf("hostvm: host store to %q needs element subscripts", tgt.Name)
		}
		idx := make([]int, len(sub.Subs))
		for d, s := range sub.Subs {
			v, _, err := vm.eval(s)
			if err != nil {
				return err
			}
			idx[d] = int(math.Trunc(v))
		}
		off, err := arr.Offset(idx)
		if err != nil {
			return fmt.Errorf("hostvm: %q: %w", tgt.Name, err)
		}
		if err := vm.Store.Materialize(arr, rt.MaterializedHostRead); err != nil {
			return fmt.Errorf("hostvm: %q: %w", tgt.Name, err)
		}
		arr.Wrote()
		arr.StoreVal(off, val)
		vm.charge(&vm.ElemCycles, vm.Cost.ElemAccess)
		return nil
	}
	return fmt.Errorf("hostvm: bad assignment target %T", op.Tgt)
}

func (vm *VM) print(op fe.Print) error {
	var parts []string
	for _, a := range op.Args {
		switch a := a.(type) {
		case nir.StrConst:
			parts = append(parts, a.S)
		case nir.AVar:
			if _, ew := a.Field.(nir.Everywhere); ew {
				arr, ok := vm.Store.Arrays[a.Name]
				if !ok {
					return fmt.Errorf("hostvm: undefined array %q", a.Name)
				}
				if err := vm.Store.Materialize(arr, rt.MaterializedHostRead); err != nil {
					return fmt.Errorf("hostvm: %q: %w", a.Name, err)
				}
				elems := make([]string, arr.Size())
				for i, v := range arr.Data {
					elems[i] = rt.FormatVal(arr.Kind, v)
				}
				parts = append(parts, strings.Join(elems, " "))
				vm.charge(&vm.ElemCycles, float64(arr.Size())*vm.Cost.ElemAccess)
				continue
			}
			v, kind, err := vm.eval(a)
			if err != nil {
				return err
			}
			parts = append(parts, rt.FormatVal(kind, v))
		default:
			v, kind, err := vm.eval(a)
			if err != nil {
				return err
			}
			parts = append(parts, rt.FormatVal(kind, v))
		}
	}
	vm.Output = append(vm.Output, strings.Join(parts, " "))
	return nil
}
