// Command layers is the traced run's in-process half: it compiles and
// executes one generated source layer by layer, with a span around each
// call into a layer's public functions, and prints the per-layer metrics
// as one JSON object.
//
// It is the only place the benchmark imports f90y/internal/..., and bench
// builds and execs it as a separate binary: when an API refactor breaks
// this adapter, bench reports "layers unavailable" and still produces
// every end-to-end number.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/cm5"
	"f90y/internal/driver"
	"f90y/internal/fe"
	"f90y/internal/hostvm"
	"f90y/internal/lexer"
	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/obs"
	"f90y/internal/opt"
	"f90y/internal/oracle"
	"f90y/internal/parser"
	"f90y/internal/partition"
	"f90y/internal/pe"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
	"f90y/internal/source"
)

// report is the JSON object printed on stdout.
type report struct {
	Rounds   int                `json:"rounds"`
	Metrics  map[string]float64 `json:"metrics"`
	Output   []string           `json:"output"`
	Cycles   cycles             `json:"cycles"`
	SelfTime []selfRow          `json:"self_time"`
}

type cycles struct {
	PE   float64 `json:"pe"`
	Comm float64 `json:"comm"`
	Host float64 `json:"host"`
}

func main() {
	srcPath := flag.String("src", "", "Fortran-90-Y source to compile and run")
	oraclePath := flag.String("oracle-src", "", "small source for the oracle.verify_ms guard")
	seconds := flag.Float64("seconds", 5, "keep starting rounds until this much time has passed")
	tmp := flag.String("tmp", "", "directory for checkpoint and disk-cache files")
	chrome := flag.String("chrome", "", "write the first rounds' spans as Chrome trace JSON here")
	flag.Parse()
	if *srcPath == "" || *oraclePath == "" || *tmp == "" {
		fmt.Fprintln(os.Stderr, "usage: layers -src file.f90 -oracle-src small.f90 -tmp dir [-seconds S] [-chrome out.json]")
		os.Exit(2)
	}
	rep, err := run(*srcPath, *oraclePath, *tmp, *chrome, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func run(srcPath, oraclePath, tmp, chrome string, seconds float64) (*report, error) {
	src, err := os.ReadFile(srcPath)
	if err != nil {
		return nil, err
	}
	oracleSrc, err := os.ReadFile(oraclePath)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	samples := map[string][]float64{}
	var last *roundResult
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var roundDur time.Duration
	for r := 0; r == 0 || time.Since(start)+roundDur < budget; r++ {
		t.op = r
		roundStart := time.Now()
		res, err := round(t, filepath.Base(srcPath), string(src), string(oracleSrc), filepath.Join(tmp, fmt.Sprintf("round%d", r)), r)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		roundDur = time.Since(roundStart)
		if last != nil && (fmt.Sprint(res.output) != fmt.Sprint(last.output) || res.cycles != last.cycles) {
			return nil, fmt.Errorf("round %d: output or modeled cycles differ from round %d", r, r-1)
		}
		for k, v := range res.timings {
			samples[k] = append(samples[k], v)
		}
		last = res
	}

	metrics := map[string]float64{}
	for k, v := range last.counts {
		metrics[k] = v
	}
	for k, v := range samples {
		metrics[k] = median(v)
	}
	if err := checkpoint(t, last.store, tmp, metrics); err != nil {
		return nil, err
	}
	// Derived metrics, from the per-round medians.
	metrics["cm2.kernel_melems_s"] = last.counts["cm2.kernel_elems"] / 1e6 / (metrics["cm2.kernel_ms"] / 1e3)
	delete(metrics, "cm2.kernel_elems")
	metrics["trace.overhead_ratio"] = metrics["trace.exec_ms"] / metrics["cm2.run_ms"]
	// Machine.RunCtx also prices every dispatch (per-class and per-line
	// cycle attribution), which the hooks above bypass: what the untraced
	// run spends beyond the traced layers is the machine model's own time.
	metrics["cm2.model_self_ms"] = metrics["cm2.run_ms"] - metrics["trace.exec_ms"]
	if metrics["cm2.model_self_ms"] < 0 {
		metrics["cm2.model_self_ms"] = 0
	}
	delete(metrics, "trace.exec_ms")
	// storeDisk is private: its cost is a miss with the disk tier on minus
	// a miss with it off.
	metrics["driver.disk_store_ms"] = metrics["driver.compile_miss_disk_ms"] - metrics["driver.compile_miss_ms"]
	if metrics["driver.disk_store_ms"] < 0 {
		metrics["driver.disk_store_ms"] = 0
	}
	delete(metrics, "driver.compile_miss_disk_ms")

	if chrome != "" {
		if err := t.writeChrome(chrome); err != nil {
			return nil, err
		}
	}
	return &report{
		Rounds:   len(samples["lexer.ms"]),
		Metrics:  metrics,
		Output:   last.output,
		Cycles:   last.cycles,
		SelfTime: t.selfTimes(),
	}, nil
}

// checkpoint snapshots the finished store the way the server's spill
// path does: Store.Checkpoint, Encode, WriteFileAtomic. Once, after the
// last round: SWE's 88 MB store encodes to 200 MB of JSON, seconds of
// work that inside the rounds would crowd out every other layer.
func checkpoint(t *tracer, store *rt.Store, tmp string, metrics map[string]float64) error {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	path := filepath.Join(tmp, "store.ckpt")
	defer os.Remove(path)
	id := t.begin("rt.ckpt_encode")
	data, err := store.Checkpoint().Encode()
	metrics["rt.ckpt_encode_ms"] = ms(t.end(id))
	if err != nil {
		return err
	}
	id = t.begin("rt.ckpt_write")
	err = rt.WriteFileAtomic(path, data)
	metrics["rt.ckpt_write_ms"] = ms(t.end(id))
	metrics["rt.ckpt_mb"] = float64(len(data)) / 1e6
	return err
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// roundResult is one round's measurements: wall-clock samples (medians
// are taken over rounds) and counts (identical in every round).
type roundResult struct {
	timings map[string]float64
	counts  map[string]float64
	output  []string
	cycles  cycles
	store   *rt.Store // the default engine's finished store
}

// round compiles and runs the source once through every layer.
func round(t *tracer, file, src, oracleSrc, tmp string, n int) (*roundResult, error) {
	ctx := context.Background()
	res := &roundResult{timings: map[string]float64{}, counts: map[string]float64{}}
	tm, ct := res.timings, res.counts
	machine := cm2.Default()

	// Compile layers, each called in turn as f90y.CompileCtx calls them.
	var rep source.Reporter
	id := t.begin("lexer")
	toks := lexer.Tokens(file, src, &rep)
	tm["lexer.ms"] = ms(t.end(id))
	if rep.HasErrors() {
		return nil, rep.Err()
	}
	ct["lexer.tokens"] = float64(len(toks))

	id = t.begin("parser")
	tree, err := parser.ParseTokens(toks, &rep)
	tm["parser.ms"] = ms(t.end(id))
	if err != nil {
		return nil, err
	}

	id = t.begin("lower")
	mod, err := lower.Lower(tree)
	tm["lower.ms"] = ms(t.end(id))
	if err != nil {
		return nil, err
	}

	tm["fe.hpf_ms"] = 0
	if len(tree.Directives) > 0 {
		id = t.begin("fe.hpf")
		err = fe.ApplyDirectives(tree, mod.Syms, nil)
		tm["fe.hpf_ms"] = ms(t.end(id))
		if err != nil {
			return nil, err
		}
	}

	id = t.begin("opt")
	omod, ostats := opt.OptimizeObs(mod, opt.Default, nil)
	tm["opt.ms"] = ms(t.end(id))
	ct["opt.padded_moves"] = float64(ostats.PaddedMoves)
	ct["opt.fused_moves"] = float64(ostats.FusedMoves)
	ct["opt.hoisted_comms"] = float64(ostats.HoistedComms)
	ct["opt.fused_loops"] = float64(ostats.FusedLoops)

	// partition calls the PE code generator itself; its pe-codegen spans
	// come from the program's own collector and are re-based as children
	// so partition's self time excludes them.
	colEpoch := time.Now()
	col := obs.NewCollector()
	id = t.begin("partition")
	prog, pstats, err := partition.CompileObs(omod, pe.Optimized, col)
	partTotal := t.end(id)
	if err != nil {
		return nil, err
	}
	var codegen time.Duration
	for _, s := range col.Spans() {
		if s.Name == "pe-codegen" {
			codegen += s.Dur()
			t.add("pe.codegen", colEpoch.Add(s.Start), colEpoch.Add(s.End), id)
		}
	}
	tm["partition.ms"] = ms(partTotal - codegen)
	tm["pe.codegen_ms"] = ms(codegen)
	ct["partition.node_routines"] = float64(pstats.NodeRoutines)
	ct["partition.comm_calls"] = float64(pstats.CommCalls)
	ct["partition.fallbacks"] = float64(pstats.Fallbacks)
	for _, r := range prog.Routines {
		ct["pe.instrs"] += float64(r.InstrCount())
		ct["pe.spills"] += float64(r.SpillSlots)
		ct["peac.body_cycles"] += float64(machine.PECost.BodyCycles(r.Body))
	}

	// Exec layers. The traced and untraced runs alternate which goes
	// first so neither always inherits the other's warm heap.
	var ex *execResult
	var plain *cm2.Result
	runPlain := func() error {
		t0 := time.Now()
		plain, err = machine.RunCtx(ctx, prog, nil, nil, nil)
		tm["cm2.run_ms"] = ms(time.Since(t0))
		return err
	}
	runTraced := func() error {
		ex, err = tracedExec(ctx, t, "", prog, machine, cm2.ExecOpts{})
		return err
	}
	order := []func() error{runTraced, runPlain}
	if n%2 == 1 {
		order[0], order[1] = order[1], order[0]
	}
	for _, f := range order {
		if err := f(); err != nil {
			return nil, err
		}
	}
	if fmt.Sprint(ex.output) != fmt.Sprint(plain.Output) {
		return nil, fmt.Errorf("traced exec output differs from cm2.Machine.RunCtx")
	}
	tm["rt.store_alloc_ms"] = ms(ex.alloc)
	tm["cm2.kernel_ms"] = ms(ex.kernel)
	tm["rt.comm_ms"] = ms(ex.comm)
	tm["hostvm.self_ms"] = ms(ex.run - ex.kernel - ex.comm)
	tm["trace.exec_ms"] = ms(ex.alloc + ex.run)
	ct["rt.store_mb"] = ex.storeMB
	ct["cm2.kernel_calls"] = float64(ex.kernelCalls)
	ct["cm2.kernel_elems"] = float64(ex.kernelElems)
	ct["rt.comm_calls"] = float64(ex.commCalls)
	ct["rt.comm_mb"] = float64(ex.commBytes) / 1e6
	ct["rt.comm_grid_cycles"] = ex.commClass[rt.CommGrid]
	ct["rt.comm_router_cycles"] = ex.commClass[rt.CommRouter]
	ct["rt.comm_reduce_cycles"] = ex.commClass[rt.CommReduce]
	ct["hostvm.cycles"] = ex.hostCycles
	ct["cm2.pe_cycles"] = plain.PECycles
	ct["cm2.gflops"] = plain.GFLOPS()
	res.output = plain.Output
	res.store = ex.store
	res.cycles = cycles{PE: plain.PECycles, Comm: plain.CommCycles, Host: plain.HostCycles}

	// The non-default engines, as layer-level views.
	jit, err := tracedExec(ctx, t, "[jit]", prog, machine, cm2.ExecOpts{JIT: true})
	if err != nil {
		return nil, err
	}
	tm["cm2.jit_kernel_ms"] = ms(jit.kernel)
	w2, err := tracedExec(ctx, t, "[w2]", prog, machine, cm2.ExecOpts{Workers: 2})
	if err != nil {
		return nil, err
	}
	tm["cm2.kernel_w2_ms"] = ms(w2.kernel)
	if fmt.Sprint(jit.output) != fmt.Sprint(plain.Output) || fmt.Sprint(w2.output) != fmt.Sprint(plain.Output) {
		return nil, fmt.Errorf("JIT or 2-worker output differs from the default engine")
	}

	// The second machine and the oracle, which no end-to-end workload times.
	t0 := time.Now()
	r5, err := cm5.Default().RunCtx(ctx, prog, nil, nil)
	tm["cm5.run_ms"] = ms(time.Since(t0))
	if err != nil {
		return nil, err
	}
	ct["cm5.cycles"] = r5.TotalCycles()
	t0 = time.Now()
	if _, err := oracle.Verify("oracle.f90", oracleSrc, oracle.Options{}); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	tm["oracle.verify_ms"] = ms(time.Since(t0))

	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// The driver's compile cache: cold, warm, and through the disk tier.
	cfg := f90y.DefaultConfig()
	svc := driver.New(1)
	id = t.begin("driver.compile_miss")
	_, err = svc.Compile(ctx, file, src, cfg)
	tm["driver.compile_miss_ms"] = ms(t.end(id))
	if err != nil {
		return nil, err
	}
	const hits = 200
	id = t.begin("driver.compile_hit")
	for i := 0; i < hits; i++ {
		if _, err := svc.Compile(ctx, file, src, cfg); err != nil {
			return nil, err
		}
	}
	tm["driver.compile_hit_us"] = ms(t.end(id)) * 1e3 / hits
	cacheDir := filepath.Join(tmp, "cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	store := driver.New(1)
	store.CacheDir = cacheDir
	id = t.begin("driver.compile_miss_disk")
	_, err = store.Compile(ctx, file, src, cfg)
	tm["driver.compile_miss_disk_ms"] = ms(t.end(id))
	if err != nil {
		return nil, err
	}
	load := driver.New(1)
	load.CacheDir = cacheDir
	id = t.begin("driver.disk_load")
	_, err = load.Compile(ctx, file, src, cfg)
	tm["driver.disk_load_ms"] = ms(t.end(id))
	if err != nil {
		return nil, err
	}
	if load.DiskStats().Hits != 1 {
		return nil, fmt.Errorf("driver: the disk tier did not serve the stored artifact")
	}
	return res, nil
}

// execResult is one traced execution.
type execResult struct {
	store                    *rt.Store
	output                   []string
	alloc, run, kernel, comm time.Duration
	kernelCalls, kernelElems int
	commCalls, commBytes     int
	storeMB, hostCycles      float64
	commClass                map[string]float64
}

// tracedExec is cm2.Machine.RunCtx with the cycle accounting left out
// and a span around each layer call: rt.NewStore, hostvm.RunCtx, and,
// through its hooks, cm2.ExecRoutineOpts per node dispatch and
// rt.Comm.ExecMove per communication.
func tracedExec(ctx context.Context, t *tracer, tag string, prog *fe.Program, m *cm2.Machine, opts cm2.ExecOpts) (*execResult, error) {
	ex := &execResult{}
	id := t.begin("rt.store_alloc" + tag)
	store := rt.NewStore(prog.Syms)
	ex.alloc = t.end(id)
	ex.store = store
	for _, a := range store.Arrays {
		ex.storeMB += float64(a.Size()) * 8 / 1e6
	}
	comm := &rt.Comm{Store: store, PEs: m.PEs, Cost: m.CommCost}
	opts.PEs = m.PEs
	hooks := hostvm.Hooks{
		Dispatch: func(r *peac.Routine, over shape.Shape) error {
			if over == nil {
				return fmt.Errorf("node routine %s without a shape", r.Name)
			}
			o := opts
			o.Subgrid = shape.Distribute(over, m.PEs, r.Dist).SubgridSize()
			id := t.begin("cm2.kernel" + tag)
			err := cm2.ExecRoutineOpts(ctx, r, over, store, o)
			ex.kernel += t.end(id)
			ex.kernelCalls++
			ex.kernelElems += shape.Size(over)
			return err
		},
		Comm: func(mv nir.Move) error {
			ex.commBytes += moveBytes(mv, store)
			id := t.begin("rt.comm" + tag)
			err := comm.ExecMove(mv)
			ex.comm += t.end(id)
			return err
		},
	}
	id = t.begin("hostvm.run" + tag)
	vm, err := hostvm.RunCtx(ctx, prog, store, m.HostCost, hooks, nil)
	ex.run = t.end(id)
	if err != nil {
		return nil, err
	}
	ex.output = vm.Output
	ex.hostCycles = vm.Cycles
	ex.commCalls = comm.Calls
	ex.commClass = comm.ClassCycles
	return ex, nil
}

// moveBytes is the payload of one communication computed from extents:
// the whole target array per guarded move, or, for a reduction into a
// scalar, every array the source reads.
func moveBytes(mv nir.Move, st *rt.Store) int {
	n := 0
	for _, g := range mv.Moves {
		if av, ok := g.Tgt.(nir.AVar); ok {
			if a := st.Arrays[av.Name]; a != nil {
				n += a.Size() * 8
				continue
			}
		}
		nir.WalkValues(g.Src, func(v nir.Value) {
			if av, ok := v.(nir.AVar); ok {
				if a := st.Arrays[av.Name]; a != nil {
					n += a.Size() * 8
				}
			}
		})
	}
	return n
}
