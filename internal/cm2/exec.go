package cm2

import (
	"context"
	"fmt"
	"math"
	"sync"

	"f90y/internal/obs"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// stream is one pointer-register binding: an array subgrid stream or a
// coordinate subgrid.
type stream struct {
	arr      *rt.Array
	coordDim int // 0 = array stream, else coordinate dimension (1-based)
	// rot, when non-nil, makes the stream a rotated window of arr: the
	// parameter named a shift view (rt/view.go) and arr is the array
	// that owns its content. Element i of the stream, per dimension d of
	// arr, is element (i + rot[d]) mod arr.Ext[d] of arr. Read-only: a
	// routine never stores through a view, nor to the array under one.
	rot []int
}

// TestOnlyPerturb, when non-nil, runs after every routine execution
// with the routine name and the store. It exists solely so tests can
// deliberately corrupt a backend's results and assert the differential
// oracle (internal/oracle) catches them with a first-divergence report;
// production code never sets it. The hook costs one nil check per
// dispatch.
var TestOnlyPerturb func(routine string, store *rt.Store)

// ExecOpts configures one routine execution beyond the routine, shape,
// and store themselves. The zero value is the production default: one
// worker.
type ExecOpts struct {
	// Num attaches the numeric-exception plane: destination lanes of
	// every can-trap float op are scanned for NaN/Inf after execution.
	// Nil disables the scan.
	Num *rt.Numeric
	// Subgrid is the per-PE element count of the dispatch layout, used
	// to attribute an exceptional lane to its processing element.
	Subgrid int
	// PEs is the machine's processing-element count; when positive it
	// clamps the numeric plane's PE attribution, so a caller-supplied
	// subgrid that does not tile the shape exactly can never report a
	// processing element beyond the machine.
	PEs int
	// Workers fans chunk execution out on the host's one pool
	// (rt.Cut): 0 and 1 run one worker, n > 1 up to n, negative
	// selects GOMAXPROCS. Results are bit-exact and invariant under the
	// worker count: chunks cover disjoint element ranges, so grid-local
	// routines execute independently per chunk, and every per-element
	// value is computed by the identical instruction sequence
	// regardless of which worker ran its chunk.
	Workers int
	// Rec receives the pool's wall-clock telemetry when the dispatch
	// fans out: per-worker busy spans (one trace track per worker),
	// chunk spans, chunk-claim wait and chunk duration histograms, and
	// utilization counters, all under the "execpool/" namespace
	// (rt.Blocks.Each). It never feeds modeled cycles, so attaching a
	// recorder cannot perturb results. Nil (or one worker) records
	// nothing.
	Rec obs.Recorder
	// JIT is inert: every routine is translated on its first dispatch
	// (jit.go). The field stays only because bench/layers names it.
	JIT bool
}

// ExecRoutineOpts executes a PEAC routine functionally over the whole
// shape. All PEs run the identical program over their subgrids;
// executing over the flattened array in rt.Grain chunks is exact for
// grid-local code. It is shared by every machine model built on the
// PEAC ISA (CM/2, CM/5), and runs under a context, a numeric-exception
// plane (when ExecOpts.Num is active, the destination lanes of every
// can-trap float op are scanned for NaN/Inf after execution, and
// ExecOpts.Subgrid — the per-PE element count of the dispatch layout —
// attributes an exceptional lane to its processing element), and the
// chunk pool (see ExecOpts). The context is checked between chunks: a
// canceled context stops the dispatch with an error wrapping
// rt.ErrCanceled.
//
// A dispatch binds its parameters, runs its chunks in one
// rt.Blocks.Each, and merges its workers' numeric planes, so error and
// numeric-plane semantics are the same at every width: the error
// returned is the one a serial loop would hit first (the failing chunk
// with the lowest element range), and record-mode tallies merge per
// class into totals that match one worker's exactly. The only
// divergence a failing run may exhibit at more than one worker is which
// chunks above the failing one also executed — a failed run's store
// contents are unspecified.
func ExecRoutineOpts(ctx context.Context, r *peac.Routine, over shape.Shape, store *rt.Store, o ExecOpts) error {
	d := dispatchPool.Get().(*dispatch)
	defer d.release()
	if err := d.bind(r, over, store, &o); err != nil {
		return err
	}
	b := rt.Cut(shape.Size(over), rt.Grain, o.Workers)
	for len(d.slots) < b.Workers {
		s := &slot{d: d}
		s.chunk = s.run
		d.slots = append(d.slots, s)
	}
	err := b.Each(ctx, o.Rec, r.Name, d.work)
	// Every worker's plane merges, error paths included: record-mode
	// tallies made before a failure stand, as one worker's would.
	for _, s := range d.slots[:b.Workers] {
		putWorkspace(s.ws)
		s.ws = nil
		o.Num.Merge(s.num)
	}
	if err != nil {
		return fmt.Errorf("cm2: routine %s: %w", r.Name, err)
	}
	if TestOnlyPerturb != nil {
		TestOnlyPerturb(r.Name, store)
	}
	return nil
}

// dispatch is one ExecRoutineOpts call: the bindings every chunk reads
// and one slot per worker. Dispatches are pooled, and work and each
// slot's chunk are method values made once with them, so a dispatch
// allocates no closure and, once warm, no binding slice.
type dispatch struct {
	r    *peac.Routine
	prog *program // the translated form, or nil under the reference evaluator
	// Bindings, indexed by register; a register no parameter binds keeps
	// the zero stream (unbound) or scalar (0).
	streams              []stream
	scalars              []float64
	ext, lo, strideBelow []int
	fast                 bool // the fast path was granted
	nregs, nbcast, lanes int  // workspace sizing, broadcast lanes
	num                  *rt.Numeric
	subgrid, npes        int
	slots                []*slot
	work                 func(w int) func(lo, hi int) error // d.worker
}

// slot is one worker's state in a dispatch: its workspace and its
// private numeric plane, merged after the pool joins.
type slot struct {
	d     *dispatch
	ws    *workspace
	num   *rt.Numeric // &plane, or nil with the plane off
	plane rt.Numeric
	chunk func(lo, hi int) error // s.run
}

var dispatchPool = sync.Pool{New: func() any {
	d := &dispatch{}
	d.work = d.worker
	return d
}}

// bind resolves r's parameters against store over the shape. The arrays
// the routine stores to move to their next write generation first, so a
// view of one of them — which the stores would change under the chunks
// still reading it — is stale by the time it would bind.
func (d *dispatch) bind(r *peac.Routine, over shape.Shape, store *rt.Store, o *ExecOpts) error {
	n := shape.Size(over)
	d.r, d.num, d.subgrid, d.npes = r, o.Num, o.Subgrid, o.PEs
	d.ext, d.lo = shape.Extents(over), shape.Lowers(over)

	// The routine's one translated form, built on first dispatch — or nil
	// when a test pinned the reference evaluator.
	var stored []bool // by pointer register: the body stores through it
	nptr, nsreg := 0, 0
	if TestOnlyEngine == EngineReference {
		d.nregs, nptr, nsreg = extents(r)
		d.nbcast = 0
		stored = r.StoredPtrs()
	} else {
		d.prog = translated(r)
		d.nregs, nptr, nsreg = d.prog.nregs, d.prog.nptr, d.prog.nsreg
		d.nbcast = len(d.prog.scalarRegs)
		stored = d.prog.stored
	}
	d.streams = append(d.streams[:0], make([]stream, nptr)...)
	d.scalars = append(d.scalars[:0], make([]float64, nsreg)...)
	d.lanes = min(n, rt.Grain)

	for _, p := range r.Params {
		if arr := store.Arrays[p.Name]; p.Kind == peac.ArrayParam && arr != nil && stored[p.Reg] {
			if arr.Data == nil {
				return fmt.Errorf("cm2: routine %s stores through %q, a shift temporary that owns no memory", r.Name, p.Name)
			}
			arr.Wrote()
		}
	}
	for _, p := range r.Params {
		switch p.Kind {
		case peac.ArrayParam:
			arr, ok := store.Arrays[p.Name]
			if !ok {
				return fmt.Errorf("cm2: routine %s references undefined array %q", r.Name, p.Name)
			}
			if arr.Size() != n {
				return fmt.Errorf("cm2: array %q size %d does not conform to shape %v", p.Name, arr.Size(), over)
			}
			d.streams[p.Reg] = stream{arr: arr}
			if arr.Data == nil {
				// The one place a view becomes a rotated stream.
				src, rot, err := arr.View()
				if err != nil {
					return fmt.Errorf("cm2: routine %s: shift temporary %q: %w", r.Name, p.Name, err)
				}
				if d.streams[p.Reg] = (stream{arr: src, rot: rot}); rot != nil {
					obs.Add(o.Rec, "exec/shift-view/bound", 1)
				}
			}
		case peac.CoordParam:
			if p.Dim < 1 || p.Dim > len(d.ext) {
				return fmt.Errorf("cm2: coordinate dim %d out of range for %v", p.Dim, over)
			}
			d.streams[p.Reg] = stream{coordDim: p.Dim}
		case peac.ScalarParam:
			v, ok := store.Scalars[p.Name]
			if !ok {
				return fmt.Errorf("cm2: routine %s references undefined scalar %q", r.Name, p.Name)
			}
			d.scalars[p.Reg] = v
		case peac.ConstParam:
			d.scalars[p.Reg] = p.Value
		}
	}

	// Coordinate strides (column-major).
	d.strideBelow = d.strideBelow[:0]
	s := 1
	for _, e := range d.ext {
		d.strideBelow = append(d.strideBelow, s)
		s *= e
	}

	// The fast path is granted or refused once per dispatch, over these
	// bindings; a refusal is counted under its reason.
	d.fast = false
	if d.prog != nil && d.prog.hasFast {
		refused := d.prog.refusal(d.streams, o.Num)
		if d.fast = refused == ""; !d.fast {
			obs.Add(o.Rec, "exec/fastpath-refused/"+refused, 1)
		}
	}
	return nil
}

// worker readies slot w for the pool: a workspace with the scalar
// broadcasts filled and a fresh numeric plane.
func (d *dispatch) worker(w int) func(lo, hi int) error {
	s := d.slots[w]
	s.ws = getWorkspace(d.nregs, d.r.SpillSlots, d.nbcast)
	if d.prog != nil {
		d.prog.bindScalars(s.ws, d.scalars, d.lanes)
	}
	s.num = nil
	if d.num != nil {
		s.plane = rt.Numeric{Mode: d.num.Mode}
		s.num = &s.plane
	}
	return s.chunk
}

// run executes elements [lo, hi) on slot s's worker.
func (s *slot) run(lo, hi int) error {
	d := s.d
	if d.prog != nil {
		e := env{p: d.prog, ws: s.ws, streams: d.streams, fast: d.fast, start: lo, w: hi - lo,
			ext: d.ext, lo: d.lo, strideBelow: d.strideBelow,
			num: s.num, subgrid: d.subgrid, npes: d.npes}
		return d.prog.execChunk(&e)
	}
	return refChunk(d.r, s.ws, d.streams, d.scalars, lo, hi-lo, d.ext, d.lo, d.strideBelow, s.num, d.subgrid, d.npes)
}

// release drops what the dispatch referenced and returns it to the pool.
func (d *dispatch) release() {
	clear(d.streams)
	d.r, d.prog, d.num = nil, nil, nil
	dispatchPool.Put(d)
}

// workspace is one executor worker's private mutable state: the
// materialized vector register file, the spill area, and one fetch
// buffer per chained-memory operand position (A, B, C — each distinct
// chained stream of an instruction gets its own buffer, so an
// instruction may chain several streams without aliasing). Workspaces
// are pooled: the per-routine register-file allocation that used to
// dominate small dispatches is paid once per worker lifetime, not once
// per routine.
type workspace struct {
	regs  [][]float64
	slots [][]float64
	mem   [3][]float64
	// bcast holds the translated form's scalar broadcast buffers (one per
	// distinct scalar register a routine reads; see jit.go). The reference
	// evaluator requests none.
	bcast [][]float64
	// rot is index scratch for gathering a rotated stream's window
	// (env.rotated): two ints per array dimension.
	rot []int
}

// rotIdx returns two rank-long scratch index slices.
func (ws *workspace) rotIdx(rank int) (a, b []int) {
	if len(ws.rot) < 2*rank {
		ws.rot = make([]int, 2*rank)
	}
	return ws.rot[:rank], ws.rot[rank : 2*rank]
}

var wsPool = sync.Pool{New: func() any { return &workspace{} }}

// getWorkspace returns a pooled workspace with capacity for at least
// nregs vector registers, nslots spill slots, and nbcast scalar
// broadcast buffers. Lane contents are unspecified: PEAC routines are
// single basic blocks whose register allocator guarantees definition
// before use, every op writes exactly the [0, w) lanes it is asked for,
// and the broadcast buffers are refilled per dispatch.
func getWorkspace(nregs, nslots, nbcast int) *workspace {
	ws := wsPool.Get().(*workspace)
	for len(ws.regs) < nregs {
		ws.regs = append(ws.regs, make([]float64, rt.Grain))
	}
	for len(ws.slots) < nslots {
		ws.slots = append(ws.slots, make([]float64, rt.Grain))
	}
	for len(ws.bcast) < nbcast {
		ws.bcast = append(ws.bcast, make([]float64, rt.Grain))
	}
	for i := range ws.mem {
		if ws.mem[i] == nil {
			ws.mem[i] = make([]float64, rt.Grain)
		}
	}
	return ws
}

func putWorkspace(ws *workspace) { wsPool.Put(ws) }

// scanNumeric is the numeric-exception plane: it inspects the freshly
// written destination lanes of one can-trap float op. Trap mode halts
// at the first exceptional lane with instruction, element, and PE
// attribution (the caller prepends the routine name); record mode
// tallies lanes per cycle class and lets the run continue. When npes is
// positive the PE attribution is clamped to the machine: a subgrid that
// does not tile the shape exactly can otherwise compute an element-to-PE
// quotient past the last processing element.
//
// Both evaluators share this one formatter, so the trap message and the
// record-mode class keys are byte-identical.
func scanNumeric(num *rt.Numeric, idx int, mnemonic, class string, dst []float64, start, w, subgrid, npes int) error {
	for i := 0; i < w; i++ {
		v := dst[i]
		nan := v != v
		if !nan && !math.IsInf(v, 0) {
			continue
		}
		if num.Mode == rt.NumericTrap {
			kind := "inf"
			if nan {
				kind = "nan"
			}
			pe := 0
			if subgrid > 0 {
				pe = (start + i) / subgrid
				if npes > 0 && pe >= npes {
					pe = npes - 1
				}
			}
			return fmt.Errorf("instr %d %s: %s produced at element %d (processing element %d): %w",
				idx, mnemonic, kind, start+i, pe, rt.ErrNumeric)
		}
		num.Note(class, nan)
	}
	return nil
}
