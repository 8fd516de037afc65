package cm2

// The translated form: each peac.Routine is decoded once, on its first
// dispatch, into one step per body instruction — the op's lane loop from
// the peac op table plus four small operand references, every operand
// kind, pointer binding, mask, IntOp variant and comparison predicate
// resolved — and the steps run per 4096-element chunk from the sharded
// worker pool (ExecRoutineOpts). Decoding is one slice allocation, cheap
// enough that a cold 256-element dispatch translates too (EXPERIMENTS
// B4), so a routine has one executable form whatever its size.
//
// The steps also carry the plan of a fast path (planLoadElim, planFuse):
// dead loads elided and read in place, adjacent pairs fused, stores sunk
// into their producers. Whether a dispatch may take it is decided over
// its actual bindings (program.refusal); a refused dispatch runs the
// same steps one instruction at a time. Either way the results equal the
// reference evaluator's (ref.go) bit for bit:
//
//   - Both call the same lane loops in the same element order. Scalar
//     operands are broadcast once per worker into lane buffers holding
//     the value the reference evaluator fills in per operand.
//   - Modeled cycles are computed analytically in run.dispatch before
//     any execution, so the executor cannot change them.
//   - Unbound-pointer operands are statically known from the routine's
//     parameter list, so they decode to fault steps that fire at the
//     same instruction position with the same message; data-dependent
//     faults (integer division by zero, numeric traps) come from the
//     shared lane loops and the shared scanNumeric formatter.

import (
	"fmt"

	"f90y/internal/nir"
	"f90y/internal/peac"
	"f90y/internal/rt"
)

// Engine names how ExecRoutineOpts evaluates a routine.
type Engine int

const (
	// EngineTranslated is production: the routine's translated form.
	EngineTranslated Engine = iota
	// EngineReference is the reference evaluator on every dispatch.
	EngineReference
)

// TestOnlyEngine, when EngineReference, runs every dispatch in the
// process under the reference evaluator. It exists solely so the
// differential tests and the oracle can compare the translated form
// against it; no flag, request field, Config or Control reaches it, and
// production code never sets it.
var TestOnlyEngine Engine

type refKind uint8

const (
	refZeros refKind = iota // NoOperand: lanes nothing ever writes
	refReg                  // workspace vector register n
	refSlot                 // workspace spill slot n
	refBcast                // broadcast buffer n (scalar register program.scalarRegs[n])
	refArray                // in-place window of the array bound to pointer register n
	refCoord                // coordinate stream of pointer register n, filled per window
)

// ref is one resolved operand: twelve bytes, four to a step.
type ref struct {
	kind refKind
	// ld, on a source with fast set, is 1 + the elided load step that
	// would have filled the register (see env.loaded). It shares kind's
	// word, so the plan elides no load past step maxElidedLoad.
	ld uint16
	n  int32
	// fast, when nonzero, is 1 + the pointer register whose array window
	// stands in for this operand on the fast path: the stream an elided
	// load would have copied (a source) or a sunk store's target (a
	// destination).
	fast int32
}

const maxElidedLoad = 1<<16 - 2

type stepKind uint8

const (
	stepNone     stepKind = iota // nop, jnz: nothing executes
	stepLanes                    // d <- fn(src...), then the numeric scan if scan
	stepLanesErr                 // d <- the op's faulting loop over src[0], src[1] (IntOp divide, mod)
	stepCoord                    // register d <- coordinate stream src[0], filled in place
	stepStore                    // array d <- src[0] under mask src[2], by the array kind's store rule
	stepFault                    // static fault: returns program.faults[k] at this position
)

// step is one decoded instruction; program.steps[k] decodes Body[k].
type step struct {
	kind   stepKind
	scan   bool // can-trap op: the numeric plane scans d
	masked bool // stepStore with a mask
	// Fast-path plan: skip executes nothing (an elided load, the second
	// half of a fused pair, a sunk store); pair > 0 fuses steps[pair]
	// into this step (one loop from fusedOps), accLeft telling which of
	// its operands was this step's destination.
	skip bool
	// A skipped dead load (planLoadElim) is elided; crossed when a fused
	// pair spans it, so that executing it after all — what a rotated
	// stream wants, see run — would land between the pair's two halves.
	elided  bool
	crossed bool
	accLeft bool
	pair    int32
	fn      peac.LaneFunc
	src     [3]ref
	d       ref
}

// program is one routine's translated form, cached on the routine itself
// (peac.Routine.Translated) so a long-lived artifact translates once per
// process however many runs share it. Everything it holds — operand
// kinds, pointer binding and coordinate-ness (fixed by Params),
// predicates, masks, IntOp — is a static property of the routine, so it
// is valid for every store and shape the routine later runs over.
type program struct {
	body  []peac.Instr
	steps []step
	// faults[k] is fault step k's error; nil for a routine with none.
	faults []error
	// Register-file, pointer-register and scalar-register extents over
	// params and body: what a dispatch sizes its workspace and binding
	// slices by.
	nregs, nptr, nsreg int
	// stored[reg]: the body stores through pointer register reg.
	stored []bool
	// scalarRegs maps each broadcast buffer (dense index) to the scalar
	// register it materializes; bindScalars fills the buffers per worker.
	scalarRegs []int32
	// pure: no step can fault, statically (unbound pointer, unimplemented
	// opcode) or on its data (IntOp divide and mod), which licenses the
	// cache-tiled execution order in execChunk.
	pure bool
	// The fast path's bind-time conditions. hazards are (loaded stream,
	// stored stream) pairs whose aliasing would let a store change what an
	// elided load would have copied. sunk lists the streams whose stores
	// were sunk into their producers: a sunk store bypasses StoreLanes,
	// which is a plain copy only for non-Integer32 arrays. unscanned marks
	// a plan with fused or sunk steps, which skip the numeric-plane scan an
	// intermediate destination would have received.
	hasFast   bool
	hazards   [][2]int32
	sunk      []int32
	unscanned bool
	// The three lists start in these arrays, so a typical routine decodes
	// in two allocations: the program and its steps.
	scalarBuf [8]int32
	hazardBuf [8][2]int32
	sunkBuf   [4]int32
}

// translated returns r's translated form, decoding it on first need.
// Concurrent first dispatches of a shared routine may each decode; the
// forms are equivalent and the last store wins.
func translated(r *peac.Routine) *program {
	if p, _ := r.Translated().(*program); p != nil {
		return p
	}
	p := decode(r)
	r.SetTranslated(p)
	return p
}

// extents sizes the register file, the pointer registers and the scalar
// registers from the routine itself, so register-file ablations
// (pe.Options.VRegs) execute unchanged and every register the body
// names, bound or not, indexes inside a dispatch's binding slices.
func extents(r *peac.Routine) (nregs, nptr, nsreg int) {
	nregs = peac.NumVRegs
	for _, pa := range r.Params {
		if pa.Kind == peac.ArrayParam || pa.Kind == peac.CoordParam {
			nptr = max(nptr, pa.Reg+1)
		} else {
			nsreg = max(nsreg, pa.Reg+1)
		}
	}
	for k := range r.Body {
		in := &r.Body[k]
		for _, o := range [...]peac.Operand{in.A, in.B, in.C, in.D} {
			switch o.Kind {
			case peac.VReg:
				nregs = max(nregs, o.N+1)
			case peac.Mem:
				nptr = max(nptr, o.N+1)
			case peac.SReg:
				nsreg = max(nsreg, o.N+1)
			}
		}
	}
	return nregs, nptr, nsreg
}

// ptrKind is how the parameter list binds pointer register reg: refArray,
// refCoord, or refZeros for a register no parameter binds.
func ptrKind(r *peac.Routine, reg int) refKind {
	kind := refZeros
	for _, pa := range r.Params {
		if pa.Reg == reg && pa.Kind == peac.ArrayParam {
			kind = refArray
		} else if pa.Reg == reg && pa.Kind == peac.CoordParam {
			kind = refCoord
		}
	}
	return kind
}

// decode translates the routine body: one step per instruction, then the
// fast-path plan over them.
func decode(r *peac.Routine) *program {
	p := &program{body: r.Body, steps: make([]step, len(r.Body)), pure: true}
	p.scalarRegs, p.hazards, p.sunk = p.scalarBuf[:0], p.hazardBuf[:0], p.sunkBuf[:0]
	p.nregs, p.nptr, p.nsreg = extents(r)
	p.stored = r.StoredPtrs()
	for k := range r.Body {
		st := &p.steps[k]
		if err := p.decodeInstr(r, st, &r.Body[k]); err != nil {
			if *st = (step{kind: stepFault}); p.faults == nil {
				p.faults = make([]error, len(r.Body))
			}
			p.faults[k] = err
		}
		if st.kind == stepFault || st.kind == stepLanesErr {
			p.pure = false
		}
	}
	p.planLoadElim()
	p.planFuse()
	return p
}

// decodeInstr fills st from the op's table row. A returned error is the
// instruction's static fault. Checks run in the reference evaluator's
// resolution order — a store's target (unbound pointer, then coordinate
// stream), then the sources A, B, C (including the unused C of a
// two-source op, whose unbound chained operand must fault identically),
// then the lane loop — so the first fault matches byte for byte.
func (p *program) decodeInstr(r *peac.Routine, st *step, in *peac.Instr) error {
	info := in.Op.Info()
	if info.Form == peac.FormNone {
		return nil
	}
	st.d = ref{kind: refReg, n: int32(in.D.N)}
	switch info.Form {
	case peac.FormLoad:
		st.src[0] = ref{kind: ptrKind(r, in.A.N), n: int32(in.A.N)}
		switch st.src[0].kind {
		case refZeros:
			return fmt.Errorf("load from unbound pointer aP%d", in.A.N)
		case refCoord:
			st.kind = stepCoord
			return nil
		}
	case peac.FormRestore:
		st.src[0] = ref{kind: refSlot, n: int32(in.A.N)}
	case peac.FormSpill:
		st.d.kind = refSlot
	case peac.FormStore:
		switch ptrKind(r, in.D.N) {
		case refZeros:
			return fmt.Errorf("store to unbound pointer aP%d", in.D.N)
		case refCoord:
			return fmt.Errorf("store to coordinate stream aP%d", in.D.N)
		}
		st.d.kind, st.masked = refArray, in.C.Kind != peac.NoOperand
	case peac.FormArith:
		st.scan = info.Trap
	}
	for pos, o := range in.Sources() {
		switch o.Kind {
		case peac.VReg:
			st.src[pos] = ref{kind: refReg, n: int32(o.N)}
		case peac.SpillSlot:
			st.src[pos] = ref{kind: refSlot, n: int32(o.N)}
		case peac.SReg:
			st.src[pos] = ref{kind: refBcast, n: p.bcastIndex(o.N)}
		case peac.Mem:
			// A plain array stream is read in place, not copied: lane loops
			// and lane stores read a source at element i immediately before
			// writing element i (ascending order), which is the identical
			// read-then-write a buffered fetch observes — including a store
			// whose source or mask chains the target array itself.
			// Coordinate lanes are computed, not resident, so they
			// materialize into the operand position's fetch buffer.
			st.src[pos] = ref{kind: ptrKind(r, o.N), n: int32(o.N)}
			if st.src[pos].kind == refZeros {
				return fmt.Errorf("chained load from unbound pointer aP%d", o.N)
			}
		}
	}
	fn, fnErr := in.Lanes()
	switch {
	case info.Form == peac.FormStore:
		st.kind = stepStore
	case fnErr != nil:
		st.kind = stepLanesErr
	case fn != nil:
		st.kind, st.fn = stepLanes, fn
	default:
		return fmt.Errorf("unimplemented opcode %v", in.Mnemonic())
	}
	return nil
}

// bcastIndex is the dense broadcast-buffer index of scalar register n.
func (p *program) bcastIndex(n int) int32 {
	for j, reg := range p.scalarRegs {
		if int(reg) == n {
			return int32(j)
		}
	}
	p.scalarRegs = append(p.scalarRegs, int32(n))
	return int32(len(p.scalarRegs) - 1)
}

// The planner works on the decoded steps: a step reads vector register
// reg where a source resolved to it, and writes it when its destination
// did. A step that executes nothing has neither, and nor does a fault
// step — nothing after it ever runs, so any plan around it is safe.

func (st *step) reads(pos int, reg int32) bool {
	return st.src[pos].kind == refReg && st.src[pos].n == reg
}

func (st *step) readsAny(reg int32) bool {
	return st.reads(0, reg) || st.reads(1, reg) || st.reads(2, reg)
}

func (st *step) writes(reg int32) bool {
	return st.d.kind == refReg && st.d.n == reg
}

// regDeadAfter reports that register reg is never read after step index
// after before its next write (or the end of the routine).
func (p *program) regDeadAfter(reg int32, after int) bool {
	for j := after + 1; j < len(p.steps); j++ {
		if p.steps[j].readsAny(reg) {
			return false
		}
		if p.steps[j].writes(reg) {
			return true
		}
	}
	return true
}

// planLoadElim finds the routine's dead loads: a load from a plain array
// stream whose destination register is only read before the next write
// of that register, with no store back to the same stream before any of
// those reads. On the fast path each such load is skipped and its reads
// are redirected to the array window itself — the values are identical
// because a window read at step time sees exactly what the elided copy
// would have captured: steps run in instruction order, a store to this
// stream only happens after the last redirected read, and a store to a
// different stream in between cannot touch this array unless the two
// streams bind the same array. Each such (load, store) stream pair is
// recorded as a hazard for refusal to check against the actual bindings
// once per dispatch; only a store that decoded to a store step counts —
// one to an unbound or coordinate pointer faults there, so no read after
// it ever runs.
func (p *program) planLoadElim() {
	for k := range p.steps {
		ld := &p.steps[k]
		if ld.kind != stepLanes || p.body[k].Op.Info().Form != peac.FormLoad || k > maxElidedLoad {
			continue
		}
		n, d := ld.src[0].n, ld.d.n
		// The load's value lives until the next write of d. An instruction
		// reads its sources before writing its destination, so a
		// self-writing instruction's read still belongs to this load.
		end, lastRead, stored, ok := len(p.steps)-1, -1, false, true
		for j := k + 1; j <= end && ok; j++ {
			st := &p.steps[j]
			if st.readsAny(d) {
				ok = !stored // the register copy predates the store; the array no longer does
				lastRead = j
			}
			stored = stored || (st.kind == stepStore && st.d.n == n)
			if st.writes(d) {
				end = j
			}
		}
		if !ok {
			continue
		}
		ld.skip, ld.elided, p.hasFast = true, true, true
		for j := k + 1; j <= end; j++ {
			st := &p.steps[j]
			for pos := range st.src {
				if st.reads(pos, d) {
					st.src[pos].fast, st.src[pos].ld = n+1, uint16(k+1)
				}
			}
			// A store before a redirected read could alias that read's array.
			if j < lastRead && st.kind == stepStore && st.d.n != n {
				p.addHazard(n, st.d.n)
			}
		}
	}
}

func (p *program) addHazard(load, store int32) {
	for _, hz := range p.hazards {
		if hz == [2]int32{load, store} {
			return
		}
	}
	p.hazards = append(p.hazards, [2]int32{load, store})
}

// planFuse extends the plan with pair fusion and store sinking, both
// over the fast path's effective order (nop, jnz and skipped steps
// execute nothing, so instructions separated only by those are adjacent:
// nothing runs between them).
//
// Pair fusion: two adjacent add/sub/mul/div steps where the second
// reads the first's destination register t in exactly one operand and t
// is dead afterwards run as one loop — t lives in a machine register
// per element instead of round-tripping through a workspace vector. The
// loop computes t with an explicit float64 conversion, which the spec
// guarantees rounds the intermediate exactly as the register write does
// (no FMA contraction), so the fused result is bit-identical.
//
// Store sinking: an arithmetic step whose destination register feeds
// only an immediately-following unmasked store (and is dead afterwards)
// writes the target array window directly and the store is skipped. The
// array receives values at the same per-element point in the order — the
// two steps were adjacent — and StoreLanes is a plain copy for Real
// arrays, which refusal checks per dispatch (program.sunk). IntOp divide
// and mod never sink: their mid-loop fault must not leave partial array
// writes a register destination would have absorbed.
//
// Both transforms skip the fused-away intermediate's numeric-plane scan,
// so a plan with either runs only while the plane is off
// (program.unscanned).
func (p *program) planFuse() {
	// next is the first step after k that executes on the fast path.
	next := func(k int) int {
		for k++; k < len(p.steps) && (p.steps[k].kind == stepNone || p.steps[k].skip); k++ {
		}
		return k
	}
	for i, j := next(-1), 0; i < len(p.steps); i = next(i) {
		if j = next(i); j == len(p.steps) {
			break
		}
		a, c := &p.steps[i], &p.steps[j]
		if fuseIndex(p.body[i].Op) < 0 || fuseIndex(p.body[j].Op) < 0 || a.kind != stepLanes || c.kind != stepLanes || a.d.kind != refReg || c.d.kind != refReg {
			continue
		}
		t := a.d.n
		accLeft := c.reads(0, t)
		if accLeft == c.reads(1, t) {
			continue // t must appear in exactly one position
		}
		if c.d.n != t && !p.regDeadAfter(t, j) {
			continue
		}
		a.pair, a.accLeft = int32(j), accLeft
		c.skip, p.hasFast, p.unscanned = true, true, true
		for k := i + 1; k < j; k++ {
			p.steps[k].crossed = p.steps[k].elided
		}
	}
	for i, j := next(-1), 0; i < len(p.steps); i = next(i) {
		if j = next(i); j == len(p.steps) {
			break
		}
		if p.steps[i].kind != stepLanes || p.body[i].Op.Info().Form != peac.FormArith {
			continue
		}
		d := &p.steps[i].d // the destination the step writes: its own, or its fused pair's
		if pair := p.steps[i].pair; pair > 0 {
			d = &p.steps[pair].d
		}
		if sj := &p.steps[j]; d.kind == refReg && sj.kind == stepStore && !sj.masked &&
			sj.reads(0, d.n) && p.regDeadAfter(d.n, j) {
			d.fast = sj.d.n + 1
			p.sunk = append(p.sunk, sj.d.n)
			sj.skip, p.hasFast, p.unscanned = true, true, true
		}
	}
}

// refusal decides, over one dispatch's bindings, whether the fast path
// may run, and names the reason when it may not (counted under
// exec/fastpath-refused/): a hazard pair binds one array, the numeric
// plane is on and the plan skips intermediate scans, or a sunk store's
// array is Integer32 (its bypassed StoreLanes would have truncated, not
// copied). A refused dispatch runs every step as decoded.
func (p *program) refusal(streams []stream, num *rt.Numeric) string {
	for _, hz := range p.hazards {
		if streams[hz[0]].arr == streams[hz[1]].arr {
			return "hazard-alias"
		}
	}
	if p.unscanned && num != nil && num.Mode != rt.NumericOff {
		return "numeric-plane"
	}
	for _, s := range p.sunk {
		if streams[s].arr.Kind == nir.Integer32 {
			return "int32-sink"
		}
	}
	return ""
}

// bindScalars fills the first lanes lanes of the workspace's broadcast
// buffers from the dispatch's scalar registers: one fill per worker per
// dispatch, after which every scalar operand is an ordinary lane vector.
// lanes is the widest chunk window the dispatch has (min(n, rt.Grain)):
// steps never read past their window, so a 256-element dispatch fills
// 256 lanes, not 4,096. An unbound scalar register broadcasts 0.
func (p *program) bindScalars(ws *workspace, scalars []float64, lanes int) {
	for j, reg := range p.scalarRegs {
		buf := ws.bcast[j][:lanes]
		v := scalars[reg]
		for i := range buf {
			buf[i] = v
		}
	}
}

// env is the per-worker execution context the steps run in: the pooled
// workspace, the dispatch's stream bindings (indexed by pointer
// register) and fast-path decision, and the chunk window. One env per
// worker, re-windowed per chunk.
type env struct {
	p           *program
	ws          *workspace
	streams     []stream
	fast        bool
	start, w    int
	ext, lo     []int
	strideBelow []int
	num         *rt.Numeric
	subgrid     int
	npes        int
}

// loaded reports that source r's elided load was executed after all, so
// r reads the register, not the stream. That is the rule for a rotated
// stream: redirected, every read would gather the window again; loaded,
// the strip gathers it once, into the register. The exception is a load
// a fused pair spans (step.crossed): the pair runs at its first half's
// position, ahead of the load, so its reads gather for themselves.
func (e *env) loaded(r ref) bool {
	return r.ld != 0 && e.streams[r.fast-1].rot != nil && !e.p.steps[r.ld-1].crossed
}

// zeroLanes is what a NoOperand source reads.
var zeroLanes = make([]float64, rt.Grain)

// lanes resolves an operand to its lane slice for the current window;
// pos selects the fetch buffer a coordinate stream materializes into
// (A=0, B=1, C=2), so an instruction chaining several never aliases.
func (e *env) lanes(r ref, pos int) []float64 {
	if e.fast && r.fast != 0 && !e.loaded(r) {
		r = ref{kind: refArray, n: r.fast - 1}
	}
	switch r.kind {
	case refReg:
		return e.ws.regs[r.n]
	case refSlot:
		return e.ws.slots[r.n]
	case refBcast:
		return e.ws.bcast[r.n]
	case refArray:
		st := &e.streams[r.n]
		if st.rot != nil {
			return e.rotated(st, e.ws.mem[pos])
		}
		return st.arr.Data[e.start : e.start+e.w]
	case refCoord:
		return e.coord(r, e.ws.mem[pos])
	}
	return zeroLanes
}

// coord fills dst with the window of coordinate stream r without a
// per-element divide: the coordinate lo+(off/stride)%ext advances by one
// every stride elements and wraps at ext, so the loop tracks the
// quotient incrementally. It produces the same integers (hence the same
// float64 lanes) as the reference evaluator's direct formula.
func (e *env) coord(r ref, dst []float64) []float64 {
	d := e.streams[r.n].coordDim - 1
	sb, ex, l := e.strideBelow[d], e.ext[d], e.lo[d]
	q := e.start / sb
	rem := e.start - q*sb
	m := q % ex
	v := float64(l + m)
	for i := 0; i < e.w; i++ {
		dst[i] = v
		rem++
		if rem == sb {
			rem = 0
			m++
			if m == ex {
				m = 0
			}
			v = float64(l + m)
		}
	}
	return dst
}

// rotated resolves the window of a rotated stream (stream.rot): the
// window itself, in place, when it is one contiguous run of the source —
// every window of a stream rotated along higher axes only, unless it
// crosses that rotation's wrap — else gathered into dst. Like coord it
// finds its way without a per-element divide: the window's first element
// is decomposed once, then every row along the lowest axis is two copies
// (the run up to the rotation's wrap and the run after it) and the
// higher axes' source indexes advance by carry.
func (e *env) rotated(st *stream, dst []float64) []float64 {
	data, ext, rot := st.arr.Data, st.arr.Ext, st.rot
	// Per axis, for the window's first element: the index the rotation
	// reads (src) and how many steps remain before the window's own index
	// carries (left). delta is the source offset minus the window offset.
	src, left := e.ws.rotIdx(len(ext))
	rest, stride, delta := e.start, 1, 0
	oneRun, rotates := true, false
	for d, n := range ext {
		i := rest % n
		rest /= n
		s := i + rot[d]
		if s >= n {
			s -= n
		}
		src[d], left[d] = s, n-i
		delta += (s - i) * stride
		if rot[d] != 0 && !rotates {
			// The lowest rotated axis: below it the source is contiguous,
			// so the window is one run iff stepping along this axis
			// neither carries nor wraps inside it.
			rotates = true
			steps := (e.start%stride + e.w - 1) / stride
			oneRun = i+steps < n && s+steps < n
		}
		stride *= n
	}
	if oneRun {
		return data[e.start+delta : e.start+delta+e.w]
	}
	n0 := ext[0]
	j, base := n0-left[0], e.start+delta-src[0] // the row's first window index; its source row
	for filled := 0; filled < e.w; j = 0 {
		seg := min(n0-j, e.w-filled)
		a := j + rot[0]
		if a >= n0 {
			a -= n0
		}
		head := min(seg, n0-a)
		copy(dst[filled:filled+head], data[base+a:base+a+head])
		copy(dst[filled+head:filled+seg], data[base:base+seg-head])
		filled += seg
		// Next row: step the higher axes, carrying where the window's
		// own index wraps.
		for d, stride := 1, n0; d < len(ext); d, stride = d+1, stride*ext[d] {
			if src[d]++; src[d] == ext[d] {
				src[d] = 0
				base -= ext[d] * stride
			}
			base += stride
			if left[d]--; left[d] > 0 {
				break
			}
			left[d] = ext[d]
		}
	}
	return dst[:e.w]
}

// strip is the cache-tiling grain: a pure program runs all its steps
// over one strip before advancing, so the lane vectors an instruction
// reads are the ones its predecessor just wrote — still resident in L1
// — instead of streaming every 32 KiB chunk vector through L2 once per
// instruction. 512 lanes keeps a typical live set (a handful of
// registers plus the stream windows) inside a 32–48 KiB L1d.
const strip = 512

// execChunk runs the steps over one chunk window.
//
// A pure program with the numeric plane inactive is tiled: every step is
// elementwise over [start, start+w) — element i's result depends only on
// same-index lanes of its sources, and register lanes are strip-relative
// in every step because all indexing derives from e.start/e.w — so
// running the whole program per strip computes bit-identical values in a
// cache-friendly order. Anything that could observe the order difference
// (a fault, a numeric trap or tally, which scans whole-chunk
// destinations between instructions) forces the untiled order.
func (p *program) execChunk(e *env) error {
	numOn := e.num != nil && e.num.Mode != rt.NumericOff
	if !p.pure || numOn || e.w <= strip {
		return p.run(e, numOn)
	}
	start, w := e.start, e.w
	for off := 0; off < w; off += strip {
		e.start, e.w = start+off, min(strip, w-off)
		_ = p.run(e, false) // a pure program cannot fault
	}
	e.start, e.w = start, w
	return nil
}

// run executes the steps over the env's window: as decoded, or by the
// fast-path plan when the dispatch was granted it.
func (p *program) run(e *env, numOn bool) error {
	for k := range p.steps {
		st := &p.steps[k]
		if e.fast && st.skip {
			if !st.elided || st.crossed || e.streams[st.src[0].n].rot == nil {
				continue
			}
			// A dead load of a rotated stream executes after all, straight
			// into its register (env.loaded has its readers agree).
			dst := e.ws.regs[st.d.n][:e.w]
			if win := e.rotated(&e.streams[st.src[0].n], dst); &win[0] != &dst[0] {
				copy(dst, win)
			}
			continue
		}
		switch st.kind {
		case stepFault:
			return p.faults[k]
		case stepCoord:
			e.coord(st.src[0], e.ws.regs[st.d.n])
		case stepStore:
			arr, src := e.streams[st.d.n].arr, e.lanes(st.src[0], 0)[:e.w]
			if st.masked {
				arr.StoreLanesMasked(e.start, src, e.lanes(st.src[2], 2))
			} else {
				arr.StoreLanes(e.start, src)
			}
		case stepLanes, stepLanesErr:
			if e.fast && st.pair > 0 {
				// t = src[0] op1 src[1], then t op2 other (or other op2 t)
				// into the second instruction's destination; other resolves
				// into buffer 2, clear of this step's A and B buffers.
				nx := &p.steps[st.pair]
				other, side := nx.src[0], 0
				if st.accLeft {
					other, side = nx.src[1], 1
				}
				fused := fusedOps[fuseIndex(p.body[k].Op)][fuseIndex(p.body[st.pair].Op)][side]
				fused(e.lanes(nx.d, 0)[:e.w], e.lanes(st.src[0], 0), e.lanes(st.src[1], 1), e.lanes(other, 2))
				continue
			}
			dst := e.lanes(st.d, 0)[:e.w]
			if st.kind == stepLanesErr {
				_, fnErr := p.body[k].Lanes()
				if err := fnErr(dst, e.lanes(st.src[0], 0), e.lanes(st.src[1], 1)); err != nil {
					return err
				}
			} else {
				st.fn(dst, e.lanes(st.src[0], 0), e.lanes(st.src[1], 1), e.lanes(st.src[2], 2))
			}
			if st.scan && numOn {
				in := p.body[k]
				if err := scanNumeric(e.num, k, in.Mnemonic(), peac.ClassOf(in).String(), dst, e.start, e.w, e.subgrid, e.npes); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
