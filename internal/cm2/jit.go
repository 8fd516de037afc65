package cm2

// The compiled executor: each peac.Routine is translated once into a
// chain of specialized Go closures — one kernel per instruction, with
// operand kinds (VReg/SReg/SpillSlot/chained Mem), masks, IntOp
// variants, and comparison predicates all resolved at build time — and
// the chain is dispatched per 4096-element chunk from the same sharded
// worker pool as the interpreter (ExecRoutineOpts). This is the paper's
// dispatch-amortization story made real: the per-element work is a
// handful of tight monomorphic loops over []float64 lanes instead of an
// instruction-by-instruction switch with per-element operand dispatch.
//
// The compiled path is bit-exact against the interpreter by
// construction:
//
//   - Every lane loop evaluates the identical float64 expression the
//     interpreter's corresponding case evaluates, in the same element
//     order. Scalar (SReg/Const) operands are broadcast once per worker
//     into chunk-sized buffers, which reads the same values the
//     interpreter's broadcast accessor returns.
//   - Modeled cycles are computed analytically in Machine.dispatch
//     before any execution, so the JIT cannot change them.
//   - Error strings are byte-identical: unbound-pointer operands are
//     statically known from the routine's parameter list, so they
//     compile to error kernels that fire at the same instruction
//     position, with the same message, that the interpreter's dynamic
//     lookup produces; data-dependent errors (integer division by
//     zero, numeric traps) use the same per-element check order and
//     the shared scanNumeric formatter.
//   - Numeric-plane tallies use the same scan over the same destination
//     lanes; the class string, mnemonic, and can-trap gate are merely
//     precomputed per instruction instead of per chunk.
//
// Which engine a dispatch runs is decided in one place, jitFor, from a
// property of the dispatch itself (see "Executor tiers" in DESIGN.md);
// the interpreter remains the differential tests' reference and the
// evaluator of cold single-chunk dispatches.

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"f90y/internal/nir"
	"f90y/internal/peac"
	"f90y/internal/rt"
)

// Engine names how ExecRoutineOpts evaluates a routine.
type Engine int

const (
	// EngineTiered is production: a routine is translated the first time
	// it is dispatched over more than one chunk or the second time it is
	// dispatched at all; a cold single-chunk first dispatch runs the
	// reference evaluator, because translating (~15 µs) costs more than
	// it saves on one such dispatch (~16 µs interpreted, ~10 compiled).
	EngineTiered Engine = iota
	// EngineReference is the execChunk interpreter on every dispatch.
	EngineReference
	// EngineCompiled translates on the first dispatch (ExecOpts.JIT).
	EngineCompiled
)

// TestOnlyEngine, when not EngineTiered, overrides the engine choice of
// every dispatch in the process. It exists solely so the differential
// tests and the oracle can run one program under the reference
// evaluator, the compiled chains, and the production tiering and compare
// them; no flag, request field, Config or Control reaches it, and
// production code never sets it.
var TestOnlyEngine Engine

// jitChain is one executable form of a routine: the kernels in
// instruction order plus what running them needs from the dispatcher.
type jitChain struct {
	kernels []jitKernel
	// scalarRegs maps each broadcast buffer (dense index) to the scalar
	// register it materializes; bindScalars fills the buffers per worker.
	scalarRegs []int
	// pure marks a chain with no error kernels — static (unbound
	// pointer, unimplemented opcode) or data-dependent (IntOp divide and
	// mod). A pure chain cannot fail, which licenses the cache-tiled
	// execution order in execChunk.
	pure bool
}

// jitProgram is one routine's translated form, cached on the routine
// itself (peac.Routine.Tier) so a long-lived artifact translates at most
// once per process however many runs share it.
type jitProgram struct {
	// opt is the fast chain (see planOpt): dead loads elided and read in
	// place, adjacent pairs fused, stores sunk into their producers. Nil
	// when the plan found nothing to do; otherwise a dispatch runs it
	// unless chainFor refuses.
	opt *jitChain
	// ref is the reference chain, one kernel per instruction. It is
	// built at translation when there is no opt chain, and otherwise
	// only when a dispatch first refuses the opt chain — most routines
	// never need both. Concurrent refusals may each build it; the builds
	// are equivalent and the last store wins.
	ref atomic.Pointer[jitChain]
	// hazards are the (loaded stream, stored stream) pairs whose
	// aliasing would let a store change what an elided load would have
	// copied; chainFor checks them against the actual bindings once per
	// dispatch.
	hazards [][2]int
	// sunk lists the stream registers whose stores were sunk into their
	// producer kernels (see planFuse). A sunk store bypasses StoreLanes,
	// which is only a plain copy for Real arrays, so chainFor re-checks
	// the bound arrays' kinds once per dispatch.
	sunk []int
	// optNumOff marks an opt chain containing fused or sunk kernels,
	// which skip the numeric-plane scan an intermediate destination
	// would have received; such a chain is only selected when the plane
	// is inactive.
	optNumOff bool
}

// jitEnv is the per-worker execution context a kernel chain runs in:
// the pooled workspace, the run's stream bindings, and the chunk
// window. One env per worker, re-windowed per chunk.
type jitEnv struct {
	ws *workspace
	// streams is indexed directly by pointer register — a dense slice
	// rather than the dispatcher's map, because kernels hit it once per
	// strip and the map hash showed up in profiles.
	streams     []stream
	start, w    int
	ext, lo     []int
	strideBelow []int
	num         *rt.Numeric
	subgrid     int
	npes        int
}

// jitKernel executes one instruction over the env's chunk window.
type jitKernel func(e *jitEnv) error

// jitSrc resolves one source operand to its lane slice for the current
// chunk; the resolution strategy is chosen at build time.
type jitSrc func(e *jitEnv) []float64

// jitZeros is the NoOperand source: the interpreter resolves a missing
// operand to a broadcast zero, so the compiled path reads these
// never-written lanes.
var jitZeros = make([]float64, chunkSize)

// jitCold is the tier memo of a routine that has been dispatched once
// and not translated: its next dispatch translates.
var jitCold = &jitProgram{}

// jitFor decides the engine of one dispatch of r over n elements: it
// returns r's translated form when the dispatch runs compiled — building
// and caching it on first need — and nil when it runs the reference
// evaluator. The tier memo is the only state: nil (never dispatched),
// jitCold (dispatched once, single chunk), or the program. Concurrent
// first dispatches of a shared routine may each see nil, and one of them
// may translate while the other interprets; both engines are
// bit-identical, so that is a property the tests pin, not a lock.
func jitFor(r *peac.Routine, n int, e Engine) *jitProgram {
	if e == EngineReference {
		return nil
	}
	memo := r.Tier()
	if p, _ := memo.(*jitProgram); p != nil && p != jitCold {
		return p
	}
	if e == EngineTiered && memo == nil && n <= chunkSize {
		r.AdvanceTier(nil, jitCold) // losing means another dispatch got here first
		return nil
	}
	p := compileRoutine(r)
	// Install over what was read, or over the cold mark a concurrent first
	// dispatch slipped in; if a concurrent translation won instead, its
	// program is equivalent and this dispatch just uses its own.
	if !r.AdvanceTier(memo, p) {
		r.AdvanceTier(jitCold, p)
	}
	return p
}

// regFileSize sizes the register file from the routine itself so
// register-file ablations (pe.Options.VRegs) execute unchanged.
func regFileSize(r *peac.Routine) int {
	nregs := peac.NumVRegs
	for _, in := range r.Body {
		for _, o := range []peac.Operand{in.A, in.B, in.C, in.D} {
			if o.Kind == peac.VReg && o.N >= nregs {
				nregs = o.N + 1
			}
		}
	}
	return nregs
}

// paramRegs classifies the routine's pointer registers: bound by any
// stream parameter, and bound to a coordinate stream.
func paramRegs(r *peac.Routine) (bound, coord map[int]bool) {
	bound, coord = map[int]bool{}, map[int]bool{}
	for _, pa := range r.Params {
		switch pa.Kind {
		case peac.ArrayParam:
			bound[pa.Reg] = true
		case peac.CoordParam:
			bound[pa.Reg] = true
			coord[pa.Reg] = true
		}
	}
	return bound, coord
}

// compileRoutine translates the routine body into a kernel chain: the
// opt chain when the plan finds anything to optimize, else the reference
// chain. Everything the translation depends on — operand kinds, pointer
// binding and coordinate-ness (fixed by Params), comparison predicates,
// masks, IntOp — is a static property of the routine, so the result is
// valid for every store and shape the routine later runs over.
func compileRoutine(r *peac.Routine) *jitProgram {
	p := &jitProgram{}
	bound, coord := paramRegs(r)
	plan := planOpt(r, bound, coord)
	if plan == nil {
		p.ref.Store(buildChain(r, bound, coord, nil))
		return p
	}
	p.opt = buildChain(r, bound, coord, plan)
	p.hazards = plan.hazards
	p.sunk = plan.sunk
	p.optNumOff = len(plan.fuse) > 0 || len(plan.sink) > 0
	return p
}

// buildChain compiles the body under plan (nil: the reference chain).
// Each chain owns its broadcast-buffer numbering and purity, so whichever
// of a program's two chains is built first, or alone, is self-contained.
func buildChain(r *peac.Routine, bound, coord map[int]bool, plan *elimPlan) *jitChain {
	c := &jitChain{}
	b := &jitBuilder{chain: c, coord: coord, bound: bound, bcast: map[int]int{}, plan: plan}
	for idx, in := range r.Body {
		if k := b.instr(idx, in); k != nil {
			c.kernels = append(c.kernels, k)
		}
	}
	c.pure = !b.impure
	return c
}

// chainFor picks the chain one dispatch runs. The opt chain is valid
// unless one of its hazard stream pairs — a store that executes between
// an elided load and one of its redirected reads — binds the same array
// as the load in this dispatch, the numeric plane is on and the chain
// skips intermediate scans, or a sunk store's array is Integer32 (its
// bypassed StoreLanes would have truncated, not copied). A refusal runs
// the reference chain, built now if no dispatch needed it before, and
// names its reason as counted under exec/fastpath-refused/.
func (p *jitProgram) chainFor(r *peac.Routine, streams []stream, num *rt.Numeric) (c *jitChain, refused string) {
	if p.opt != nil {
		for _, hz := range p.hazards {
			if streams[hz[0]].arr == streams[hz[1]].arr {
				refused = "hazard-alias"
				break
			}
		}
		if refused == "" && p.optNumOff && num != nil && num.Mode != rt.NumericOff {
			refused = "numeric-plane"
		}
		for _, s := range p.sunk {
			if refused == "" && streams[s].arr.Kind == nir.Integer32 {
				refused = "int32-sink"
			}
		}
		if refused == "" {
			return p.opt, ""
		}
	}
	c = p.ref.Load()
	if c == nil {
		bound, coord := paramRegs(r)
		c = buildChain(r, bound, coord, nil)
		p.ref.Store(c)
	}
	return c, refused
}

// planOpt assembles the opt chain's plan: dead-load elimination first
// (its elided set defines the effective kernel order), then pair fusion
// and store sinking over that order. Nil when no optimization applies,
// in which case the reference chain is the only chain.
func planOpt(r *peac.Routine, bound, coord map[int]bool) *elimPlan {
	plan := planLoadElim(r, bound, coord)
	if plan == nil {
		plan = &elimPlan{elide: map[int]bool{}, redirect: map[[2]int]int{}}
	}
	plan.fuse = map[int]fusedPair{}
	plan.skip = map[int]bool{}
	plan.sink = map[int]int{}
	planFuse(r, bound, coord, plan)
	if len(plan.elide) == 0 && len(plan.fuse) == 0 && len(plan.sink) == 0 {
		return nil
	}
	return plan
}

// planLoadElim finds the routine's dead loads: an FLODV from a plain
// array stream whose destination register is only read before the next
// write of that register, with no store back to the same stream before
// any of those reads. Each such load's copy is elided and its reads are
// redirected to the array window itself — the values are identical
// because a window read at kernel time sees exactly what the elided
// copy would have captured: kernels run in instruction order, a store
// to this stream only happens after the last redirected read, and a
// store to a different stream in between cannot touch this array unless
// the two streams bind the same array — each such (load, store) stream
// pair is recorded as a hazard for ExecRoutineOpts to check against the
// actual bindings once per dispatch. Returns nil when nothing elides.
type elimPlan struct {
	elide    map[int]bool   // body index of an FLODV with no kernel
	redirect map[[2]int]int // (body index, source position A=0/B=1/C=2) -> stream reg
	hazards  [][2]int       // (loaded stream, stored stream) pairs that must not alias
	// Fusion and sinking (planFuse) over the effective kernel order:
	fuse map[int]fusedPair // first body index -> the pair it absorbs
	skip map[int]bool      // body indices absorbed into an earlier kernel
	sink map[int]int       // producer body index -> stream reg its dst writes through
	sunk []int             // all sink target streams (dispatch checks their kind)
}

// fusedPair records that the instruction at body index j consumes this
// instruction's destination register t in exactly one operand position
// (accLeft: jn.A is t; otherwise jn.B is t) and t is dead afterwards, so
// the two compile to one loop that keeps t in a machine register.
type fusedPair struct {
	j       int
	jn      peac.Instr
	accLeft bool
}

// regSrcs returns an instruction's register-source positions — the
// operands the interpreter reads before writing the destination.
func regSrcs(in peac.Instr) [3]peac.Operand {
	var srcs [3]peac.Operand
	switch in.Op {
	case peac.FLODV, peac.RESTV: // no register sources
	case peac.SPILLV:
		srcs[0] = in.A
	case peac.FSTRV:
		srcs[0], srcs[2] = in.A, in.C
	default:
		srcs[0], srcs[1], srcs[2] = in.A, in.B, in.C
	}
	return srcs
}

// regDeadAfter reports that register reg is never read after body index
// after before its next write (or the end of the routine).
func regDeadAfter(r *peac.Routine, reg, after int) bool {
	for j := after + 1; j < len(r.Body); j++ {
		jn := r.Body[j]
		if jn.Op == peac.NOP || jn.Op == peac.JNZ {
			continue
		}
		for _, o := range regSrcs(jn) {
			if o.Kind == peac.VReg && o.N == reg {
				return false
			}
		}
		if jn.D.Kind == peac.VReg && jn.D.N == reg {
			return true
		}
	}
	return true
}

// planFuse extends the plan with pair fusion and store sinking, both
// over the effective kernel order (NOP, JNZ, and elided loads emit no
// kernels, so instructions separated only by those are adjacent: nothing
// executes between their kernels).
//
// Pair fusion: two adjacent add/sub/mul/div kernels where the second
// reads the first's destination register t in exactly one operand and t
// is dead afterwards compile to one loop — t lives in a machine register
// per element instead of round-tripping through a workspace vector. The
// loop computes t with an explicit float64 conversion, which the spec
// guarantees rounds the intermediate exactly as the interpreter's
// register write does (no FMA contraction), so the fused result is
// bit-identical.
//
// Store sinking: a kernel whose destination register feeds only an
// immediately-following unmasked FSTRV (and is dead afterwards) writes
// the target array window directly and the FSTRV emits no kernel. The
// array receives values at the same per-element point in the chain —
// the two kernels were adjacent — and StoreLanes is a plain copy for
// Real arrays, which the dispatch-time kind check (jitProgram.sunk)
// guarantees before the opt chain is selected. IntOp divide/mod never
// sink: their mid-loop error must not leave partial array writes the
// interpreter's register destination would have absorbed.
//
// Both transforms skip the fused-away intermediate's numeric-plane scan,
// so a plan with any of them pins the opt chain to numeric-off runs
// (jitProgram.optNumOff).
func planFuse(r *peac.Routine, bound, coord map[int]bool, plan *elimPlan) {
	var eff []int
	for idx, in := range r.Body {
		if in.Op == peac.NOP || in.Op == peac.JNZ || plan.elide[idx] {
			continue
		}
		eff = append(eff, idx)
	}
	clean := func(in peac.Instr) bool {
		for _, o := range []peac.Operand{in.A, in.B, in.C} {
			if o.Kind == peac.Mem && !bound[o.N] {
				return false // would compile to an error kernel
			}
		}
		return true
	}
	canFuse := func(in peac.Instr) bool {
		switch in.Op {
		case peac.FADDV, peac.FSUBV, peac.FMULV:
		case peac.FDIVV:
			if in.IntOp {
				return false // data-dependent error kernel
			}
		default:
			return false
		}
		return in.D.Kind == peac.VReg && clean(in)
	}
	for k := 0; k+1 < len(eff); k++ {
		i, j := eff[k], eff[k+1]
		a, c := r.Body[i], r.Body[j]
		if !canFuse(a) || !canFuse(c) {
			continue
		}
		t := a.D.N
		accA := c.A.Kind == peac.VReg && c.A.N == t
		accB := c.B.Kind == peac.VReg && c.B.N == t
		if accA == accB {
			continue // t must appear in exactly one position
		}
		if !(c.D.Kind == peac.VReg && c.D.N == t) && !regDeadAfter(r, t, j) {
			continue
		}
		plan.fuse[i] = fusedPair{j: j, jn: c, accLeft: accA}
		plan.skip[j] = true
		k++ // j is consumed; the next candidate pair starts after it
	}
	for k := 0; k < len(eff); k++ {
		i := eff[k]
		if plan.skip[i] {
			continue
		}
		in := r.Body[i]
		switch in.Op {
		case peac.FLODV, peac.RESTV, peac.SPILLV, peac.FSTRV:
			continue
		case peac.FDIVV, peac.FMODV:
			if in.IntOp {
				continue
			}
		}
		d := in.D
		if fp, ok := plan.fuse[i]; ok {
			d = fp.jn.D
		}
		if d.Kind != peac.VReg {
			continue
		}
		kk := k + 1
		for kk < len(eff) && plan.skip[eff[kk]] {
			kk++
		}
		if kk >= len(eff) {
			continue
		}
		j2 := eff[kk]
		sn := r.Body[j2]
		if sn.Op != peac.FSTRV || sn.C.Kind != peac.NoOperand {
			continue
		}
		if !(sn.A.Kind == peac.VReg && sn.A.N == d.N) {
			continue
		}
		if !bound[sn.D.N] || coord[sn.D.N] {
			continue // the store itself would be an error kernel
		}
		if !regDeadAfter(r, d.N, j2) {
			continue
		}
		plan.sink[i] = sn.D.N
		plan.skip[j2] = true
		plan.sunk = append(plan.sunk, sn.D.N)
	}
}

func planLoadElim(r *peac.Routine, bound, coord map[int]bool) *elimPlan {
	plan := &elimPlan{elide: map[int]bool{}, redirect: map[[2]int]int{}}
	hazard := map[[2]int]bool{}
	for k, in := range r.Body {
		if in.Op != peac.FLODV || !bound[in.A.N] || coord[in.A.N] {
			continue
		}
		n, d := in.A.N, in.D.N
		var reads [][2]int
		var storesSeen []int // streams stored to so far in the window
		hazardsHit := map[[2]int]bool{}
		ok, stored := true, false
		for j := k + 1; j < len(r.Body) && ok; j++ {
			jn := r.Body[j]
			if jn.Op == peac.NOP || jn.Op == peac.JNZ {
				continue
			}
			// Collect jn's register-source positions (the interpreter
			// reads an instruction's sources before writing its
			// destination, so a self-writing instruction's read still
			// belongs to this load's value).
			for pos, o := range regSrcs(jn) {
				if o.Kind == peac.VReg && o.N == d {
					if stored {
						ok = false // the register copy predates the store; the array no longer does
						break
					}
					reads = append(reads, [2]int{j, pos})
					// Every store already seen could alias this read's
					// array; the dispatch-time check rules it out.
					for _, m := range storesSeen {
						hazardsHit[[2]int{n, m}] = true
					}
				}
			}
			if jn.Op == peac.FSTRV {
				if jn.D.N == n {
					stored = true
				} else {
					storesSeen = append(storesSeen, jn.D.N)
				}
			}
			if jn.D.Kind == peac.VReg && jn.D.N == d {
				break // next write of d: later reads see the new value
			}
		}
		if ok {
			plan.elide[k] = true
			for _, rd := range reads {
				plan.redirect[rd] = n
			}
			for hz := range hazardsHit {
				hazard[hz] = true
			}
		}
	}
	if len(plan.elide) == 0 {
		return nil
	}
	for hz := range hazard {
		plan.hazards = append(plan.hazards, hz)
	}
	return plan
}

// bindScalars fills the first lanes lanes of the workspace's broadcast
// buffers from the run's scalar bindings: one fill per worker per
// dispatch, after which every scalar operand is an ordinary lane vector.
// lanes is the widest chunk window the dispatch has (min(n, chunkSize)):
// kernels never read past their window, so a 256-element dispatch fills
// 256 lanes, not 4,096. An unbound scalar register broadcasts 0, exactly
// like the interpreter's map lookup.
func (c *jitChain) bindScalars(ws *workspace, scalars map[int]float64, lanes int) {
	for j, reg := range c.scalarRegs {
		buf := ws.bcast[j][:lanes]
		v := scalars[reg]
		for i := range buf {
			buf[i] = v
		}
	}
}

// jitStrip is the cache-tiling grain: a pure chain runs all its kernels
// over one strip before advancing, so the lane vectors an instruction
// reads are the ones its predecessor just wrote — still resident in L1
// — instead of streaming every 32 KiB chunk vector through L2 once per
// instruction. 512 lanes keeps a typical live set (a handful of
// registers plus the stream windows) inside a 32–48 KiB L1d.
const jitStrip = 512

// execChunk runs the kernel chain over one chunk window.
//
// A pure chain (no error kernels) with the numeric plane inactive is
// tiled: every kernel is elementwise over [start, start+w) — element
// i's result depends only on same-index lanes of its sources, and
// register lanes are strip-relative in every kernel because all
// indexing derives from e.start/e.w — so running the whole chain per
// strip computes bit-identical values in a cache-friendly order.
// Anything that could observe the order difference (a data-dependent
// error, a numeric trap or tally, which scans whole-chunk destinations
// between instructions) forces the untiled reference order.
func (c *jitChain) execChunk(e *jitEnv) error {
	numOff := e.num == nil || e.num.Mode == rt.NumericOff
	if c.pure && e.w > jitStrip && numOff {
		start, w := e.start, e.w
		for off := 0; off < w; off += jitStrip {
			e.start = start + off
			e.w = min(jitStrip, w-off)
			for _, k := range c.kernels {
				_ = k(e) // a pure chain cannot error
			}
		}
		e.start, e.w = start, w
		return nil
	}
	for _, k := range c.kernels {
		if err := k(e); err != nil {
			return err
		}
	}
	return nil
}

// jitBuilder carries the compile state of one chain.
type jitBuilder struct {
	chain  *jitChain
	bound  map[int]bool // pointer reg -> bound by a param
	coord  map[int]bool // pointer reg -> bound to a coordinate stream
	bcast  map[int]int  // scalar reg -> dense broadcast buffer index
	impure bool         // some kernel can return an error
	// plan, when non-nil, compiles the load-elided chain: elided FLODVs
	// emit no kernel and redirected register reads compile to zero-copy
	// array windows. The reference chain compiles with plan == nil.
	plan *elimPlan
}

// streamSrc is the zero-copy window of a plain array stream.
func streamSrc(n int) jitSrc {
	return func(e *jitEnv) []float64 {
		return e.streams[n].arr.Data[e.start : e.start+e.w]
	}
}

// srcAt compiles the source at position pos of instruction idx,
// honoring the elimination plan's redirects.
func (b *jitBuilder) srcAt(idx int, o peac.Operand, pos int) (jitSrc, error) {
	return b.srcAtBuf(idx, o, pos, pos)
}

// srcAtBuf is srcAt with the chained-fetch buffer chosen independently
// of the operand's position: a fused kernel resolves its second
// instruction's operand into buffer 2 so it cannot collide with the
// first instruction's A/B buffers, which are live in the same loop.
func (b *jitBuilder) srcAtBuf(idx int, o peac.Operand, pos, buf int) (jitSrc, error) {
	if b.plan != nil {
		if n, ok := b.plan.redirect[[2]int{idx, pos}]; ok {
			return streamSrc(n), nil
		}
	}
	return b.src(o, buf)
}

// dst compiles an arithmetic destination: the workspace register vector,
// or — when the plan sank the register's only consumer, an unmasked
// store — the target array window itself.
func (b *jitBuilder) dst(idx, dn int) func(e *jitEnv) []float64 {
	if b.plan != nil {
		if s, ok := b.plan.sink[idx]; ok {
			return func(e *jitEnv) []float64 {
				return e.streams[s].arr.Data[e.start : e.start+e.w]
			}
		}
	}
	return func(e *jitEnv) []float64 { return e.ws.regs[dn][:e.w] }
}

func (b *jitBuilder) bcastIdx(n int) int {
	if j, ok := b.bcast[n]; ok {
		return j
	}
	j := len(b.chain.scalarRegs)
	b.bcast[n] = j
	b.chain.scalarRegs = append(b.chain.scalarRegs, n)
	return j
}

// errKernel is an instruction that statically faults: it returns err at
// its position in the chain, preserving the interpreter's execution
// order (instructions before it run, instructions after it do not).
// Any error kernel marks the chain impure, pinning the untiled order.
func (b *jitBuilder) errKernel(err error) jitKernel {
	b.impure = true
	return func(*jitEnv) error { return err }
}

// src compiles one source operand; pos selects the chained-memory fetch
// buffer (A=0, B=1, C=2), matching the interpreter's per-position
// buffers so multi-chained instructions never alias. An unbound Mem
// operand returns the interpreter's chained-load error for the caller
// to turn into an error kernel.
func (b *jitBuilder) src(o peac.Operand, pos int) (jitSrc, error) {
	switch o.Kind {
	case peac.VReg:
		n := o.N
		return func(e *jitEnv) []float64 { return e.ws.regs[n] }, nil
	case peac.SReg:
		j := b.bcastIdx(o.N)
		return func(e *jitEnv) []float64 { return e.ws.bcast[j] }, nil
	case peac.SpillSlot:
		n := o.N
		return func(e *jitEnv) []float64 { return e.ws.slots[n] }, nil
	case peac.Mem:
		n := o.N
		if !b.bound[n] {
			return nil, fmt.Errorf("chained load from unbound pointer aP%d", n)
		}
		if b.coord[n] {
			return func(e *jitEnv) []float64 {
				buf := e.ws.mem[pos]
				coordFill(e.streams[n].coordDim-1, buf, e.start, e.w, e.ext, e.lo, e.strideBelow)
				return buf
			}, nil
		}
		// Plain array stream: the interpreter's fetch is a straight copy
		// of arr.Data[start:start+w] into a buffer, so the kernel can
		// read the array's lanes in place. Safe because lane loops and
		// lane stores only read a source at element i immediately before
		// writing element i (ascending order), which is the identical
		// read-then-write the interpreter's buffered fetch observes —
		// including a store whose source or mask chains the target array
		// itself. Coordinate streams above still materialize: their lanes
		// are computed, not resident.
		return streamSrc(n), nil
	}
	return func(*jitEnv) []float64 { return jitZeros }, nil
}

// coordFill writes a coordinate stream's [start, start+w) window
// without a per-element divide: the coordinate lo+(off/stride)%ext
// advances by one every stride elements and wraps at ext, so the loop
// tracks the quotient incrementally. It produces the same integers
// (hence the same float64 lanes) as fetchMem's direct formula, which
// remains the interpreter's path.
func coordFill(d int, dst []float64, start, w int, ext, lo, strideBelow []int) {
	sb, ex, l := strideBelow[d], ext[d], lo[d]
	q := start / sb
	rem := start - q*sb
	m := q % ex
	v := float64(l + m)
	for i := 0; i < w; i++ {
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
}

// scanStep precomputes the numeric-scan gate for one instruction: the
// can-trap decision, the cycle-class string, and the mnemonic are
// resolved at build time instead of per chunk. Nil for instructions the
// plane never scans.
func scanStep(idx int, in peac.Instr) func(e *jitEnv, dst []float64) error {
	if !peac.CanTrap(in.Op) {
		return nil
	}
	mnem := in.Mnemonic()
	class := peac.ClassOf(in).String()
	return func(e *jitEnv, dst []float64) error {
		if e.num == nil || e.num.Mode == rt.NumericOff {
			return nil
		}
		return scanNumeric(e.num, idx, mnem, class, dst, e.start, e.w, e.subgrid, e.npes)
	}
}

// instr compiles one instruction; nil means no kernel (NOP, JNZ, an
// elided load, or an instruction absorbed into an earlier fused or
// sinking kernel).
func (b *jitBuilder) instr(idx int, in peac.Instr) jitKernel {
	if b.plan != nil && b.plan.skip[idx] {
		return nil
	}
	switch in.Op {
	case peac.JNZ, peac.NOP:
		return nil
	case peac.FLODV:
		n := in.A.N
		if !b.bound[n] {
			return b.errKernel(fmt.Errorf("load from unbound pointer aP%d", n))
		}
		if b.plan != nil && b.plan.elide[idx] {
			return nil // dead load: every read of its register is redirected
		}
		dn := in.D.N
		if b.coord[n] {
			return func(e *jitEnv) error {
				coordFill(e.streams[n].coordDim-1, e.ws.regs[dn], e.start, e.w, e.ext, e.lo, e.strideBelow)
				return nil
			}
		}
		return func(e *jitEnv) error {
			fetchMem(e.streams[n], e.ws.regs[dn], e.start, e.w, e.ext, e.lo, e.strideBelow)
			return nil
		}
	case peac.RESTV:
		an, dn := in.A.N, in.D.N
		return func(e *jitEnv) error {
			copy(e.ws.regs[dn][:e.w], e.ws.slots[an][:e.w])
			return nil
		}
	case peac.SPILLV:
		dn := in.D.N
		src, err := b.srcAt(idx, in.A, 0)
		if err != nil {
			return b.errKernel(err)
		}
		return func(e *jitEnv) error {
			copy(e.ws.slots[dn][:e.w], src(e)[:e.w])
			return nil
		}
	case peac.FSTRV:
		return b.store(idx, in)
	}
	if b.plan != nil {
		if fp, ok := b.plan.fuse[idx]; ok {
			return b.fusedArith(idx, in, fp)
		}
	}
	return b.arith(idx, in)
}

// fusedArith compiles a fused pair (see planFuse): per element,
// t = in.A op1 in.B with an explicit rounding barrier, then
// dst = t op2 other (accLeft) or other op2 t, where dst is the second
// instruction's destination — possibly sunk to an array window. The
// numeric-plane scan of t is skipped, which optNumOff accounts for.
func (b *jitBuilder) fusedArith(idx int, in peac.Instr, fp fusedPair) jitKernel {
	ga, err := b.srcAtBuf(idx, in.A, 0, 0)
	if err != nil {
		return b.errKernel(err)
	}
	gb, err := b.srcAtBuf(idx, in.B, 1, 1)
	if err != nil {
		return b.errKernel(err)
	}
	other, opos := fp.jn.A, 0
	if fp.accLeft {
		other, opos = fp.jn.B, 1
	}
	gz, err := b.srcAtBuf(fp.j, other, opos, 2)
	if err != nil {
		return b.errKernel(err)
	}
	f := fusedOps[fuseKey{in.Op, fp.jn.Op, fp.accLeft}]
	dst := b.dst(idx, fp.jn.D.N)
	return func(e *jitEnv) error {
		f(dst(e), ga(e), gb(e), gz(e))
		return nil
	}
}

// store compiles an FSTRV: target binding checked first (the store
// taxonomy: unbound pointer, then coordinate stream), then the source,
// then the optional mask — the interpreter's resolution order, so the
// first error matches byte for byte.
func (b *jitBuilder) store(idx int, in peac.Instr) jitKernel {
	dn := in.D.N
	if !b.bound[dn] {
		return b.errKernel(fmt.Errorf("store to unbound pointer aP%d", dn))
	}
	if b.coord[dn] {
		return b.errKernel(fmt.Errorf("store to coordinate stream aP%d", dn))
	}
	src, err := b.srcAt(idx, in.A, 0)
	if err != nil {
		return b.errKernel(err)
	}
	if in.C.Kind == peac.NoOperand {
		return func(e *jitEnv) error {
			e.streams[dn].arr.StoreLanes(e.start, src(e)[:e.w])
			return nil
		}
	}
	mask, err := b.srcAt(idx, in.C, 2)
	if err != nil {
		return b.errKernel(err)
	}
	return func(e *jitEnv) error {
		e.streams[dn].arr.StoreLanesMasked(e.start, src(e)[:e.w], mask(e))
		return nil
	}
}

// Data-dependent error values. The strings match the interpreter's
// fmt.Errorf calls exactly; callers wrap with the routine prefix.
var (
	errIntDivZero = errors.New("integer division by zero")
	errIntModZero = errors.New("mod by zero")
)

// laneOps maps each arithmetic opcode to its lane loop (FCMPV goes
// through cmpOps, the IntOp divide and mod through their erroring
// variants). Every loop has the one signature; a loop ignores the
// sources its op does not have.
var laneOps = map[peac.Opcode]func(dst, x, y, z []float64){
	peac.FADDV:  lanesAdd,
	peac.FSUBV:  lanesSub,
	peac.FMULV:  lanesMul,
	peac.FDIVV:  lanesDiv,
	peac.FMODV:  lanesMod,
	peac.FMINV:  lanesMin,
	peac.FMAXV:  lanesMax,
	peac.FMADDV: lanesFmadd,
	peac.FMSUBV: lanesFmsub,
	peac.FNEGV:  lanesNeg,
	peac.FABSV:  lanesAbs,
	peac.FSQRTV: lanesSqrt,
	peac.FSINV:  lanesSin,
	peac.FCOSV:  lanesCos,
	peac.FTANV:  lanesTan,
	peac.FEXPV:  lanesExp,
	peac.FLOGV:  lanesLog,
	peac.FTRNCV: lanesTrunc,
	peac.FMOVV:  lanesMov,
	peac.FNOTV:  lanesNot,
	peac.FANDV:  lanesAnd,
	peac.FORV:   lanesOr,
	peac.FEQVV:  lanesEqv,
	peac.FNEQV:  lanesNeqv,
	peac.FSELV:  lanesSel,
}

var cmpOps = map[peac.CmpKind]func(dst, x, y, z []float64){
	peac.CmpEQ: lanesCmpEQ,
	peac.CmpNE: lanesCmpNE,
	peac.CmpLT: lanesCmpLT,
	peac.CmpLE: lanesCmpLE,
	peac.CmpGT: lanesCmpGT,
	peac.CmpGE: lanesCmpGE,
}

// arith compiles an arithmetic instruction. Sources resolve in the
// interpreter's A, B, C order — including the unused C of a two-source
// op, whose unbound chained operand must fault identically — then the
// opcode (with its comparison predicate or IntOp variant) selects a
// monomorphic lane loop at build time.
func (b *jitBuilder) arith(idx int, in peac.Instr) jitKernel {
	ga, err := b.srcAt(idx, in.A, 0)
	if err != nil {
		return b.errKernel(err)
	}
	gb, err := b.srcAt(idx, in.B, 1)
	if err != nil {
		return b.errKernel(err)
	}
	gc, err := b.srcAt(idx, in.C, 2)
	if err != nil {
		return b.errKernel(err)
	}

	f := laneOps[in.Op]
	var fe func(dst, x, y []float64) error // data-dependent divide/mod by zero
	switch {
	case in.Op == peac.FDIVV && in.IntOp:
		fe = lanesDivInt
	case in.Op == peac.FMODV && in.IntOp:
		fe = lanesModInt
	case in.Op == peac.FCMPV:
		if f = cmpOps[in.Cmp]; f == nil {
			f = lanesFalse // the interpreter's unmatched predicate
		}
	case f == nil:
		return b.errKernel(fmt.Errorf("unimplemented opcode %v", in.Mnemonic()))
	}
	gd := b.dst(idx, in.D.N)
	scan := scanStep(idx, in)
	if fe != nil {
		b.impure = true
		return func(e *jitEnv) error {
			dst := gd(e)
			if err := fe(dst, ga(e), gb(e)); err != nil {
				return err
			}
			if scan != nil {
				return scan(e, dst)
			}
			return nil
		}
	}
	return func(e *jitEnv) error {
		dst := gd(e)
		f(dst, ga(e), gb(e), gc(e))
		if scan != nil {
			return scan(e, dst)
		}
		return nil
	}
}

// Lane loops. Each is a monomorphic pass over the chunk window with the
// sources resliced to len(dst) so the compiler drops the bounds checks.
// Loops run in ascending element order and touch only index i per
// step, so a destination register aliasing a source (d = d*s) computes
// exactly what the interpreter's read-then-write of element i computes.

func lanesAdd(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
}

func lanesSub(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

func lanesMul(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = x[i] * y[i]
	}
}

func lanesDiv(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = x[i] / y[i]
	}
}

func lanesDivInt(dst, x, y []float64) error {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		d := y[i]
		if d == 0 {
			return errIntDivZero
		}
		dst[i] = math.Trunc(x[i] / d)
	}
	return nil
}

func lanesMod(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = math.Mod(x[i], y[i])
	}
}

func lanesModInt(dst, x, y []float64) error {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		d := y[i]
		if d == 0 {
			return errIntModZero
		}
		v := x[i]
		dst[i] = v - math.Trunc(v/d)*d
	}
	return nil
}

func lanesMin(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = math.Min(x[i], y[i])
	}
}

func lanesMax(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = math.Max(x[i], y[i])
	}
}

func lanesFmadd(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = x[i]*y[i] + z[i]
	}
}

func lanesFmsub(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = x[i]*y[i] - z[i]
	}
}

func lanesNeg(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = -x[i]
	}
}

func lanesAbs(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Abs(x[i])
	}
}

func lanesSqrt(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Sqrt(x[i])
	}
}

func lanesSin(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Sin(x[i])
	}
}

func lanesCos(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Cos(x[i])
	}
}

func lanesTan(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Tan(x[i])
	}
}

func lanesExp(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Exp(x[i])
	}
}

func lanesLog(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Log(x[i])
	}
}

func lanesTrunc(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Trunc(x[i])
	}
}

func lanesMov(dst, x, _, _ []float64) {
	copy(dst, x[:len(dst)])
}

func lanesNot(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] == 0)
	}
}

func lanesCmpEQ(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] == y[i])
	}
}

func lanesCmpNE(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] != y[i])
	}
}

func lanesCmpLT(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] < y[i])
	}
}

func lanesCmpLE(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] <= y[i])
	}
}

func lanesCmpGT(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] > y[i])
	}
}

func lanesCmpGE(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] >= y[i])
	}
}

func lanesFalse(dst, _, _, _ []float64) {
	for i := range dst {
		dst[i] = 0
	}
}

func lanesAnd(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] != 0 && y[i] != 0)
	}
}

func lanesOr(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] != 0 || y[i] != 0)
	}
}

func lanesEqv(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f((x[i] != 0) == (y[i] != 0))
	}
}

func lanesNeqv(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f((x[i] != 0) != (y[i] != 0))
	}
}

func lanesSel(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		if z[i] != 0 {
			dst[i] = x[i]
		} else {
			dst[i] = y[i]
		}
	}
}

// Fused-pair loops. Each computes t = x op1 y — the explicit float64
// conversion is the spec's fusion barrier, pinning the intermediate to
// the exact rounding the interpreter's register write performs — then
// combines t with z on the side the second instruction read the
// register. Operand order is preserved exactly (no commuting), so even
// NaN-payload propagation matches the interpreter.
type fuseKey struct {
	o1, o2  peac.Opcode
	accLeft bool
}

var fusedOps = map[fuseKey]func(dst, x, y, z []float64){
	{peac.FADDV, peac.FADDV, true}:  fuseAddAddL,
	{peac.FADDV, peac.FADDV, false}: fuseAddAddR,
	{peac.FADDV, peac.FSUBV, true}:  fuseAddSubL,
	{peac.FADDV, peac.FSUBV, false}: fuseAddSubR,
	{peac.FADDV, peac.FMULV, true}:  fuseAddMulL,
	{peac.FADDV, peac.FMULV, false}: fuseAddMulR,
	{peac.FADDV, peac.FDIVV, true}:  fuseAddDivL,
	{peac.FADDV, peac.FDIVV, false}: fuseAddDivR,
	{peac.FSUBV, peac.FADDV, true}:  fuseSubAddL,
	{peac.FSUBV, peac.FADDV, false}: fuseSubAddR,
	{peac.FSUBV, peac.FSUBV, true}:  fuseSubSubL,
	{peac.FSUBV, peac.FSUBV, false}: fuseSubSubR,
	{peac.FSUBV, peac.FMULV, true}:  fuseSubMulL,
	{peac.FSUBV, peac.FMULV, false}: fuseSubMulR,
	{peac.FSUBV, peac.FDIVV, true}:  fuseSubDivL,
	{peac.FSUBV, peac.FDIVV, false}: fuseSubDivR,
	{peac.FMULV, peac.FADDV, true}:  fuseMulAddL,
	{peac.FMULV, peac.FADDV, false}: fuseMulAddR,
	{peac.FMULV, peac.FSUBV, true}:  fuseMulSubL,
	{peac.FMULV, peac.FSUBV, false}: fuseMulSubR,
	{peac.FMULV, peac.FMULV, true}:  fuseMulMulL,
	{peac.FMULV, peac.FMULV, false}: fuseMulMulR,
	{peac.FMULV, peac.FDIVV, true}:  fuseMulDivL,
	{peac.FMULV, peac.FDIVV, false}: fuseMulDivR,
	{peac.FDIVV, peac.FADDV, true}:  fuseDivAddL,
	{peac.FDIVV, peac.FADDV, false}: fuseDivAddR,
	{peac.FDIVV, peac.FSUBV, true}:  fuseDivSubL,
	{peac.FDIVV, peac.FSUBV, false}: fuseDivSubR,
	{peac.FDIVV, peac.FMULV, true}:  fuseDivMulL,
	{peac.FDIVV, peac.FMULV, false}: fuseDivMulR,
	{peac.FDIVV, peac.FDIVV, true}:  fuseDivDivL,
	{peac.FDIVV, peac.FDIVV, false}: fuseDivDivR,
}

func fuseAddAddL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]+y[i]) + z[i]
	}
}

func fuseAddAddR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] + float64(x[i]+y[i])
	}
}

func fuseAddSubL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]+y[i]) - z[i]
	}
}

func fuseAddSubR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] - float64(x[i]+y[i])
	}
}

func fuseAddMulL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]+y[i]) * z[i]
	}
}

func fuseAddMulR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] * float64(x[i]+y[i])
	}
}

func fuseAddDivL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]+y[i]) / z[i]
	}
}

func fuseAddDivR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] / float64(x[i]+y[i])
	}
}

func fuseSubAddL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]-y[i]) + z[i]
	}
}

func fuseSubAddR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] + float64(x[i]-y[i])
	}
}

func fuseSubSubL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]-y[i]) - z[i]
	}
}

func fuseSubSubR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] - float64(x[i]-y[i])
	}
}

func fuseSubMulL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]-y[i]) * z[i]
	}
}

func fuseSubMulR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] * float64(x[i]-y[i])
	}
}

func fuseSubDivL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]-y[i]) / z[i]
	}
}

func fuseSubDivR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] / float64(x[i]-y[i])
	}
}

func fuseMulAddL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]*y[i]) + z[i]
	}
}

func fuseMulAddR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] + float64(x[i]*y[i])
	}
}

func fuseMulSubL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]*y[i]) - z[i]
	}
}

func fuseMulSubR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] - float64(x[i]*y[i])
	}
}

func fuseMulMulL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]*y[i]) * z[i]
	}
}

func fuseMulMulR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] * float64(x[i]*y[i])
	}
}

func fuseMulDivL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]*y[i]) / z[i]
	}
}

func fuseMulDivR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] / float64(x[i]*y[i])
	}
}

func fuseDivAddL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]/y[i]) + z[i]
	}
}

func fuseDivAddR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] + float64(x[i]/y[i])
	}
}

func fuseDivSubL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]/y[i]) - z[i]
	}
}

func fuseDivSubR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] - float64(x[i]/y[i])
	}
}

func fuseDivMulL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]/y[i]) * z[i]
	}
}

func fuseDivMulR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] * float64(x[i]/y[i])
	}
}

func fuseDivDivL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]/y[i]) / z[i]
	}
}

func fuseDivDivR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] / float64(x[i]/y[i])
	}
}
