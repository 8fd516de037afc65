package cm2

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"f90y/internal/obs"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// chunkSize bounds executor memory: registers are materialized for this
// many elements at a time. The cycle model is analytic, so the chunk size
// has no effect on reported performance, only on simulation memory. It is
// also the sharding grain of the parallel executor: chunk boundaries are
// fixed by this constant, never by the worker count, which is one of the
// two invariants that make results bit-exact under parallelism (the other
// is that chunks cover disjoint element ranges).
const chunkSize = 4096

// stream is one pointer-register binding: an array subgrid stream or a
// coordinate subgrid.
type stream struct {
	arr      *rt.Array
	coordDim int // 0 = array stream, else coordinate dimension (1-based)
}

// TestOnlyPerturb, when non-nil, runs after every routine execution
// with the routine name and the store. It exists solely so tests can
// deliberately corrupt a backend's results and assert the differential
// oracle (internal/oracle) catches them with a first-divergence report;
// production code never sets it. The hook costs one nil check per
// dispatch.
var TestOnlyPerturb func(routine string, store *rt.Store)

// ExecOpts configures one routine execution beyond the routine, shape,
// and store themselves. The zero value is the production default: serial,
// engine chosen per dispatch by the tier rule (jitFor).
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
	// Workers fans chunk execution out across a worker pool: 0 and 1
	// run serially, n > 1 runs n workers, negative selects GOMAXPROCS.
	// Results are bit-exact and invariant under the worker count:
	// chunks cover disjoint element ranges, so grid-local routines
	// execute independently per chunk, and every per-element value is
	// computed by the identical instruction sequence regardless of
	// which worker ran its chunk.
	Workers int
	// Rec receives pool runtime telemetry from the parallel path:
	// per-worker busy spans (one trace track per worker), chunk spans,
	// chunk-claim wait and chunk duration histograms, and utilization
	// counters, all under the "execpool/" namespace. Wall-clock only —
	// it never feeds modeled cycles, so attaching a recorder cannot
	// perturb results. Nil (or a serial run) records nothing.
	Rec obs.Recorder
	// JIT translates the routine on its first dispatch instead of
	// waiting for jitFor's tier rule (see jit.go). Results, error
	// strings, modeled cycles, and numeric tallies are bit-identical
	// whichever engine runs, for every worker count; only wall-clock
	// changes.
	JIT bool
}

// ExecRoutineOpts executes a PEAC routine functionally over the whole
// shape. All PEs run the identical program over their subgrids;
// executing over the flattened array in chunks is exact for grid-local
// code. It is shared by every machine model built on the PEAC ISA
// (CM/2, CM/5), and runs under a context, a numeric-exception plane
// (when ExecOpts.Num is active, the destination lanes of every can-trap
// float op are scanned for NaN/Inf after execution, and ExecOpts.Subgrid
// — the per-PE element count of the dispatch layout — attributes an
// exceptional lane to its processing element), and an optional chunk
// worker pool (see ExecOpts). The context is honored by the parallel
// path between chunks: a canceled context stops the fan-out and returns
// an error wrapping rt.ErrCanceled.
//
// Error and numeric-plane semantics under parallelism are deterministic:
// the error returned is always the one the serial executor would have
// hit first (the failing chunk with the lowest element range wins,
// regardless of worker completion order), and record-mode numeric
// tallies are merged per class, so totals match a serial run exactly.
// The only divergence a failing parallel run may exhibit is which
// not-yet-reported chunks also executed before the pool drained — a
// failed run's store contents are unspecified on the serial path too.
func ExecRoutineOpts(ctx context.Context, r *peac.Routine, over shape.Shape, store *rt.Store, o ExecOpts) error {
	n := shape.Size(over)
	ext := shape.Extents(over)
	lo := shape.Lowers(over)

	streams := map[int]stream{}
	scalars := map[int]float64{}
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
			streams[p.Reg] = stream{arr: arr}
		case peac.CoordParam:
			if p.Dim < 1 || p.Dim > len(ext) {
				return fmt.Errorf("cm2: coordinate dim %d out of range for %v", p.Dim, over)
			}
			streams[p.Reg] = stream{coordDim: p.Dim}
		case peac.ScalarParam:
			v, ok := store.Scalars[p.Name]
			if !ok {
				return fmt.Errorf("cm2: routine %s references undefined scalar %q", r.Name, p.Name)
			}
			scalars[p.Reg] = v
		case peac.ConstParam:
			scalars[p.Reg] = p.Value
		}
	}

	// Coordinate strides (column-major).
	strideBelow := make([]int, len(ext))
	s := 1
	for d := range ext {
		strideBelow[d] = s
		s *= ext[d]
	}

	nchunks := (n + chunkSize - 1) / chunkSize
	workers := o.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nchunks {
		workers = nchunks
	}

	// Engine selection, the one place it happens: the interpreter
	// (execChunk) or a compiled kernel chain (jit.go), by jitFor's tier
	// rule unless the caller or a test pinned one. Both share the chunk
	// grid, the worker pool, the workspace pool, and the numeric plane, so
	// the choice changes wall-clock only. One counter per dispatch says
	// which ran and, when the fast chain was refused, why.
	engine := TestOnlyEngine
	if engine == EngineTiered && o.JIT {
		engine = EngineCompiled
	}
	var chain *jitChain
	var jstreams []stream
	nregs, nbcast := regFileSize(r), 0
	if prog := jitFor(r, n, engine); prog != nil {
		// Kernels index streams by pointer register once per strip, so
		// they get a dense slice instead of the map.
		maxReg := -1
		for reg := range streams {
			if reg > maxReg {
				maxReg = reg
			}
		}
		jstreams = make([]stream, maxReg+1)
		for reg, st := range streams {
			jstreams[reg] = st
		}
		var refused string
		chain, refused = prog.chainFor(r, jstreams, o.Num)
		nbcast = len(chain.scalarRegs)
		obs.Add(o.Rec, "exec/engine/compiled", 1)
		if refused != "" {
			obs.Add(o.Rec, "exec/fastpath-refused/"+refused, 1)
		}
	} else if engine == EngineTiered {
		obs.Add(o.Rec, "exec/engine/reference-cold", 1)
	}
	setup := func(ws *workspace) {
		if chain != nil {
			chain.bindScalars(ws, scalars, min(n, chunkSize))
		}
	}
	runChunk := func(ws *workspace, start, w int, num *rt.Numeric) error {
		if chain != nil {
			env := jitEnv{ws: ws, streams: jstreams, start: start, w: w,
				ext: ext, lo: lo, strideBelow: strideBelow,
				num: num, subgrid: o.Subgrid, npes: o.PEs}
			return chain.execChunk(&env)
		}
		return execChunk(r, ws, streams, scalars, start, w, ext, lo, strideBelow, num, o.Subgrid, o.PEs)
	}

	if workers <= 1 {
		ws := getWorkspace(nregs, r.SpillSlots, nbcast)
		defer putWorkspace(ws)
		setup(ws)
		for start := 0; start < n; start += chunkSize {
			w := min(chunkSize, n-start)
			if err := runChunk(ws, start, w, o.Num); err != nil {
				return fmt.Errorf("cm2: routine %s: %w", r.Name, err)
			}
		}
		if TestOnlyPerturb != nil {
			TestOnlyPerturb(r.Name, store)
		}
		return nil
	}

	// Parallel fan-out. Chunks are claimed off a monotone counter, so by
	// the time chunk k is claimed every chunk below k has been claimed
	// too; a failing chunk cancels further claims but already-claimed
	// chunks run to completion. Together these guarantee that the
	// lowest-indexed error is always discovered, which is exactly the
	// error the serial loop would have returned.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next   atomic.Int64
		done   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, nchunks)
	nums := make([]*rt.Numeric, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			ws := getWorkspace(nregs, r.SpillSlots, nbcast)
			defer putWorkspace(ws)
			setup(ws)
			// Each worker tallies (or traps) into a private plane;
			// record-mode counts merge after the pool drains.
			var wnum *rt.Numeric
			if o.Num != nil {
				wnum = &rt.Numeric{Mode: o.Num.Mode}
				nums[wk] = wnum
			}
			// Pool telemetry: each worker records on its own track, so
			// the Chrome trace shows one lane per worker with the busy
			// span and the chunk spans inside it. All of it is gated on
			// o.Rec so the plain hot path runs unchanged.
			track := wk + 1
			if o.Rec != nil {
				obs.Add(o.Rec, "execpool/workers", 1)
				busy := obs.StartTrack(o.Rec, "worker/"+r.Name, track)
				defer busy.End()
			}
			for cctx.Err() == nil {
				var claim time.Time
				if o.Rec != nil {
					claim = time.Now()
				}
				idx := int(next.Add(1)) - 1
				if idx >= nchunks {
					return
				}
				start := idx * chunkSize
				w := min(chunkSize, n-start)
				var sp obs.Span
				var t0 time.Time
				if o.Rec != nil {
					t0 = time.Now()
					obs.Observe(o.Rec, "execpool/chunk-claim-wait-ns", float64(t0.Sub(claim).Nanoseconds()))
					sp = obs.StartTrack(o.Rec, "chunk/"+r.Name, track)
				}
				err := runChunk(ws, start, w, wnum)
				if o.Rec != nil {
					sp.End()
					obs.Observe(o.Rec, "execpool/chunk-ns", float64(time.Since(t0).Nanoseconds()))
					obs.Add(o.Rec, "execpool/chunks", 1)
					obs.Add(o.Rec, "execpool/elements", float64(w))
				}
				if err != nil {
					errs[idx] = err
					failed.Store(true)
					cancel()
					return
				}
				done.Add(1)
			}
		}(wk)
	}
	wg.Wait()

	// Merge the per-worker numeric planes before ANY exit, error paths
	// included: the serial loop tallies record-mode counts straight into
	// o.Num before returning its error, so a failing parallel run must
	// surface the tallies its workers accumulated too, not drop them.
	if o.Num != nil {
		for _, wn := range nums {
			o.Num.Merge(wn)
		}
	}
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("cm2: routine %s: %w", r.Name, err)
			}
		}
	}
	if int(done.Load()) < nchunks {
		// No chunk failed but not all ran: the caller's context ended.
		return fmt.Errorf("cm2: routine %s: %w", r.Name, rt.Canceled(ctx))
	}
	if TestOnlyPerturb != nil {
		TestOnlyPerturb(r.Name, store)
	}
	return nil
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
	// bcast holds the compiled executor's scalar broadcast buffers (one
	// per distinct scalar register a routine reads; see jit.go). The
	// interpreter path requests none.
	bcast [][]float64
}

var wsPool = sync.Pool{New: func() any { return &workspace{} }}

// getWorkspace returns a pooled workspace with capacity for at least
// nregs vector registers, nslots spill slots, and nbcast scalar
// broadcast buffers. Lane contents are unspecified: PEAC routines are
// single basic blocks whose register allocator guarantees definition
// before use, every op writes exactly the [0, w) lanes it is asked for,
// and the compiled path refills its broadcast buffers per dispatch.
func getWorkspace(nregs, nslots, nbcast int) *workspace {
	ws := wsPool.Get().(*workspace)
	for len(ws.regs) < nregs {
		ws.regs = append(ws.regs, make([]float64, chunkSize))
	}
	for len(ws.slots) < nslots {
		ws.slots = append(ws.slots, make([]float64, chunkSize))
	}
	for len(ws.bcast) < nbcast {
		ws.bcast = append(ws.bcast, make([]float64, chunkSize))
	}
	for i := range ws.mem {
		if ws.mem[i] == nil {
			ws.mem[i] = make([]float64, chunkSize)
		}
	}
	return ws
}

func putWorkspace(ws *workspace) { wsPool.Put(ws) }

// fetchMem reads a pointer stream for [start, start+w) into dst.
func fetchMem(st stream, dst []float64, start, w int, ext, lo, strideBelow []int) {
	if st.coordDim > 0 {
		d := st.coordDim - 1
		for i := 0; i < w; i++ {
			off := start + i
			dst[i] = float64(lo[d] + (off/strideBelow[d])%ext[d])
		}
		return
	}
	copy(dst[:w], st.arr.Data[start:start+w])
}

func execChunk(r *peac.Routine, ws *workspace, streams map[int]stream, scalars map[int]float64,
	start, w int, ext, lo, strideBelow []int, num *rt.Numeric, subgrid, npes int) error {

	regs, slots := ws.regs, ws.slots

	// source resolves one operand to a lane slice or a broadcast scalar.
	// A chained memory operand is fetched into buf — each operand
	// position passes its own buffer, so an instruction with several
	// chained streams (Mem in A and B, an FSTRV with a Mem source or
	// mask) reads each stream's own lanes, never another operand's
	// leftover fetch.
	source := func(o peac.Operand, buf []float64) ([]float64, float64, error) {
		switch o.Kind {
		case peac.VReg:
			return regs[o.N], 0, nil
		case peac.SReg:
			return nil, scalars[o.N], nil
		case peac.SpillSlot:
			return slots[o.N], 0, nil
		case peac.Mem:
			st, ok := streams[o.N]
			if !ok {
				return nil, 0, fmt.Errorf("chained load from unbound pointer aP%d", o.N)
			}
			fetchMem(st, buf, start, w, ext, lo, strideBelow)
			return buf, 0, nil
		}
		return nil, 0, nil
	}

	at := func(sl []float64, sc float64, i int) float64 {
		if sl != nil {
			return sl[i]
		}
		return sc
	}

	for idx, in := range r.Body {
		switch in.Op {
		case peac.JNZ, peac.NOP:
			continue
		case peac.FLODV:
			st, ok := streams[in.A.N]
			if !ok {
				return fmt.Errorf("load from unbound pointer aP%d", in.A.N)
			}
			fetchMem(st, regs[in.D.N], start, w, ext, lo, strideBelow)
			continue
		case peac.RESTV:
			copy(regs[in.D.N][:w], slots[in.A.N][:w])
			continue
		case peac.SPILLV:
			copy(slots[in.D.N][:w], regs[in.A.N][:w])
			continue
		case peac.FSTRV:
			// The unbound-pointer taxonomy: a target register no param
			// binds is "unbound"; one bound to a coordinate stream is a
			// distinct, read-only-target error (coordinates are computed,
			// not stored). The compiled path produces both byte-identically.
			st, ok := streams[in.D.N]
			if !ok {
				return fmt.Errorf("store to unbound pointer aP%d", in.D.N)
			}
			if st.arr == nil {
				return fmt.Errorf("store to coordinate stream aP%d", in.D.N)
			}
			src, srcSc, err := source(in.A, ws.mem[0])
			if err != nil {
				return err
			}
			if in.C.Kind != peac.NoOperand {
				mask, maskSc, err := source(in.C, ws.mem[2])
				if err != nil {
					return err
				}
				for i := 0; i < w; i++ {
					if at(mask, maskSc, i) != 0 {
						st.arr.StoreVal(start+i, at(src, srcSc, i))
					}
				}
			} else {
				for i := 0; i < w; i++ {
					st.arr.StoreVal(start+i, at(src, srcSc, i))
				}
			}
			continue
		}

		// Arithmetic: resolve the sources, fetching each chained memory
		// operand into its own per-position buffer.
		av, asc, err := source(in.A, ws.mem[0])
		if err != nil {
			return err
		}
		bv, bsc, err := source(in.B, ws.mem[1])
		if err != nil {
			return err
		}
		cv, csc, err := source(in.C, ws.mem[2])
		if err != nil {
			return err
		}
		dst := regs[in.D.N]

		switch in.Op {
		case peac.FADDV:
			for i := 0; i < w; i++ {
				dst[i] = at(av, asc, i) + at(bv, bsc, i)
			}
		case peac.FSUBV:
			for i := 0; i < w; i++ {
				dst[i] = at(av, asc, i) - at(bv, bsc, i)
			}
		case peac.FMULV:
			for i := 0; i < w; i++ {
				dst[i] = at(av, asc, i) * at(bv, bsc, i)
			}
		case peac.FDIVV:
			if in.IntOp {
				for i := 0; i < w; i++ {
					d := at(bv, bsc, i)
					if d == 0 {
						return fmt.Errorf("integer division by zero")
					}
					dst[i] = math.Trunc(at(av, asc, i) / d)
				}
			} else {
				for i := 0; i < w; i++ {
					dst[i] = at(av, asc, i) / at(bv, bsc, i)
				}
			}
		case peac.FMODV:
			if in.IntOp {
				for i := 0; i < w; i++ {
					d := at(bv, bsc, i)
					if d == 0 {
						return fmt.Errorf("mod by zero")
					}
					x := at(av, asc, i)
					dst[i] = x - math.Trunc(x/d)*d
				}
			} else {
				for i := 0; i < w; i++ {
					dst[i] = math.Mod(at(av, asc, i), at(bv, bsc, i))
				}
			}
		case peac.FMINV:
			for i := 0; i < w; i++ {
				dst[i] = math.Min(at(av, asc, i), at(bv, bsc, i))
			}
		case peac.FMAXV:
			for i := 0; i < w; i++ {
				dst[i] = math.Max(at(av, asc, i), at(bv, bsc, i))
			}
		case peac.FMADDV:
			for i := 0; i < w; i++ {
				dst[i] = at(av, asc, i)*at(bv, bsc, i) + at(cv, csc, i)
			}
		case peac.FMSUBV:
			for i := 0; i < w; i++ {
				dst[i] = at(av, asc, i)*at(bv, bsc, i) - at(cv, csc, i)
			}
		case peac.FNEGV:
			for i := 0; i < w; i++ {
				dst[i] = -at(av, asc, i)
			}
		case peac.FABSV:
			for i := 0; i < w; i++ {
				dst[i] = math.Abs(at(av, asc, i))
			}
		case peac.FSQRTV:
			for i := 0; i < w; i++ {
				dst[i] = math.Sqrt(at(av, asc, i))
			}
		case peac.FSINV:
			for i := 0; i < w; i++ {
				dst[i] = math.Sin(at(av, asc, i))
			}
		case peac.FCOSV:
			for i := 0; i < w; i++ {
				dst[i] = math.Cos(at(av, asc, i))
			}
		case peac.FTANV:
			for i := 0; i < w; i++ {
				dst[i] = math.Tan(at(av, asc, i))
			}
		case peac.FEXPV:
			for i := 0; i < w; i++ {
				dst[i] = math.Exp(at(av, asc, i))
			}
		case peac.FLOGV:
			for i := 0; i < w; i++ {
				dst[i] = math.Log(at(av, asc, i))
			}
		case peac.FTRNCV:
			for i := 0; i < w; i++ {
				dst[i] = math.Trunc(at(av, asc, i))
			}
		case peac.FMOVV:
			for i := 0; i < w; i++ {
				dst[i] = at(av, asc, i)
			}
		case peac.FCMPV:
			for i := 0; i < w; i++ {
				x, y := at(av, asc, i), at(bv, bsc, i)
				var t bool
				switch in.Cmp {
				case peac.CmpEQ:
					t = x == y
				case peac.CmpNE:
					t = x != y
				case peac.CmpLT:
					t = x < y
				case peac.CmpLE:
					t = x <= y
				case peac.CmpGT:
					t = x > y
				case peac.CmpGE:
					t = x >= y
				}
				dst[i] = b2f(t)
			}
		case peac.FANDV:
			for i := 0; i < w; i++ {
				dst[i] = b2f(at(av, asc, i) != 0 && at(bv, bsc, i) != 0)
			}
		case peac.FORV:
			for i := 0; i < w; i++ {
				dst[i] = b2f(at(av, asc, i) != 0 || at(bv, bsc, i) != 0)
			}
		case peac.FEQVV:
			for i := 0; i < w; i++ {
				dst[i] = b2f((at(av, asc, i) != 0) == (at(bv, bsc, i) != 0))
			}
		case peac.FNEQV:
			for i := 0; i < w; i++ {
				dst[i] = b2f((at(av, asc, i) != 0) != (at(bv, bsc, i) != 0))
			}
		case peac.FNOTV:
			for i := 0; i < w; i++ {
				dst[i] = b2f(at(av, asc, i) == 0)
			}
		case peac.FSELV:
			for i := 0; i < w; i++ {
				if at(cv, csc, i) != 0 {
					dst[i] = at(av, asc, i)
				} else {
					dst[i] = at(bv, bsc, i)
				}
			}
		default:
			return fmt.Errorf("unimplemented opcode %v", in.Mnemonic())
		}
		if num != nil && num.Mode != rt.NumericOff && peac.CanTrap(in.Op) {
			if err := scanNumeric(num, idx, in.Mnemonic(), peac.ClassOf(in).String(), dst, start, w, subgrid, npes); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanNumeric is the numeric-exception plane: it inspects the freshly
// written destination lanes of one can-trap float op. Trap mode halts
// at the first exceptional lane with instruction, element, and PE
// attribution (the caller prepends the routine name); record mode
// tallies lanes per cycle class and lets the run continue. When npes is
// positive the PE attribution is clamped to the machine: a subgrid that
// does not tile the shape exactly can otherwise compute an element-to-PE
// quotient past the last processing element.
//
// The mnemonic and class strings are parameters so both executors share
// one formatter: the interpreter computes them per scan, the compiled
// path precomputes them per instruction — either way the trap message
// and the record-mode class keys are byte-identical.
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

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
