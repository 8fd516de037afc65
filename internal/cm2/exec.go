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
// is that chunks cover disjoint element ranges). It is rt.Grain, the
// same block the comm layer fills its payloads in.
const chunkSize = rt.Grain

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
// and store themselves. The zero value is the production default: serial.
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
	// JIT is inert: every routine is translated on its first dispatch
	// (jit.go). The field stays only because bench/layers names it.
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

	// The routine's one translated form, built on first dispatch — or nil
	// when a test pinned the reference evaluator. Both share the chunk
	// grid, the worker pool, the workspace pool, and the numeric plane.
	var prog *program
	var stored []bool // by pointer register: the body stores through it
	nregs, nptr, nsreg := 0, 0, 0
	if TestOnlyEngine == EngineReference {
		nregs, nptr, nsreg = extents(r)
		stored = r.StoredPtrs()
	} else {
		prog = translated(r)
		nregs, nptr, nsreg = prog.nregs, prog.nptr, prog.nsreg
		stored = prog.stored
	}

	// Bindings, indexed by register; a register no parameter binds keeps
	// the zero stream (unbound) or scalar (0). The arrays the routine
	// stores to move to their next write generation first, so a view of
	// one of them — which the stores would change under the chunks still
	// reading it — is stale by the time it would bind.
	streams := make([]stream, nptr)
	scalars := make([]float64, nsreg)
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
			streams[p.Reg] = stream{arr: arr}
			if arr.Data == nil {
				// The one place a view becomes a rotated stream.
				src, rot, err := arr.View()
				if err != nil {
					return fmt.Errorf("cm2: routine %s: shift temporary %q: %w", r.Name, p.Name, err)
				}
				if streams[p.Reg] = (stream{arr: src, rot: rot}); rot != nil {
					obs.Add(o.Rec, "exec/shift-view/bound", 1)
				}
			}
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

	// The fast path is granted or refused once per dispatch, over these
	// bindings; a refusal is counted under its reason.
	fast, nbcast := false, 0
	if prog != nil {
		nbcast = len(prog.scalarRegs)
		if prog.hasFast {
			refused := prog.refusal(streams, o.Num)
			if fast = refused == ""; !fast {
				obs.Add(o.Rec, "exec/fastpath-refused/"+refused, 1)
			}
		}
	}
	setup := func(ws *workspace) {
		if prog != nil {
			prog.bindScalars(ws, scalars, min(n, chunkSize))
		}
	}
	runChunk := func(ws *workspace, start, w int, num *rt.Numeric) error {
		if prog != nil {
			e := env{p: prog, ws: ws, streams: streams, fast: fast, start: start, w: w,
				ext: ext, lo: lo, strideBelow: strideBelow,
				num: num, subgrid: o.Subgrid, npes: o.PEs}
			return prog.execChunk(&e)
		}
		return refChunk(r, ws, streams, scalars, start, w, ext, lo, strideBelow, num, o.Subgrid, o.PEs)
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
