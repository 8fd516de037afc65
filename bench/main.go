// Command bench is the repository benchmark. It measures the two things a
// user of this system sees, from outside the program and with tracing
// off: Fortran source → results through a freshly built f90yrun process,
// and request → response through a freshly built f90yd process on
// loopback. A separate traced run (-trace 1) re-executes the same
// generated sources in-process, layer by layer, through bench/layers.
//
//	go run -C bench f90y/bench -workload swe -seed 7 -seconds 12 -trace 0
//	go run -C bench f90y/bench -seed 7             # every workload, one table
//	go run -C bench f90y/bench -seed 7 -repeat 5   # five sets, spread, bounds check
//
// With -workload the last line of stdout is one JSON object (correct,
// attempted, failed, metrics); see README.md for every name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	workloadName := flag.String("workload", "", "run one workload and end with the result JSON line (default: every workload, as a table)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same sources")
	seconds := flag.Int("seconds", 0, "length of the timed window (default: run_seconds in BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics")
	repeat := flag.Int("repeat", 1, "without -workload: run the suite this many times and compare the sets with the bounds in BENCHMARK.json")
	calibrate := flag.Bool("calibrate", false, "internal: serve host-speed kernel timings over stdin/stdout")
	flag.Parse()
	if *calibrate {
		if err := calibServe(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *repeat < 1 {
		flag.Usage()
		return 2
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer e.close()
	// A signal must not leave an f90yd child or a state directory behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	if *seconds <= 0 {
		*seconds = e.spec.RunSeconds
	}

	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *workloadName)
			return 2
		}
		res, err := runWorkload(e, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		res.print(e, os.Stdout)
		if err := res.printJSON(e, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !res.correct() {
			return 1
		}
		return 0
	}
	return runSuite(e, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *repeat)
}

// result is one workload's run: end-to-end metrics with tracing off, or
// the per-layer metrics of the traced run.
type result struct {
	workload  string
	attempted int
	failed    int
	firstErr  error // the first failed op, for the report
	metrics   map[string]float64
	notes     []string // sample counts and percentile support, one per line
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *result) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// print writes every metric by name with its unit, then the notes.
func (r *result) print(e *env, out *os.File) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-14s %-28s %14.4f %s\n", r.workload, n, r.metrics[n], e.unit(n))
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(out, "%-14s %-28s %14.4f ratio (%d failed of %d attempted)\n", r.workload, "fail_ratio", ratio, r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(out, "%-14s # %s\n", r.workload, n)
	}
	if r.firstErr != nil {
		fmt.Fprintf(out, "%-14s # first failure: %v\n", r.workload, r.firstErr)
	}
}

// printJSON writes the contract's result line: exactly the metrics
// BENCHMARK.json lists for this mode, each with its unit.
func (r *result) printJSON(e *env, trace bool) error {
	specs := e.spec.EndToEnd
	if trace {
		specs = e.spec.PerLayer
	}
	type measured struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]measured{}
	for _, m := range specs {
		v, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		metrics[m.Name] = measured{Value: v, Unit: m.Unit}
	}
	if len(metrics) != len(r.metrics) {
		return fmt.Errorf("measured %d metrics, BENCHMARK.json lists %d for this mode", len(r.metrics), len(metrics))
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// prepared is a finished set-up: sources on disk, references taken,
// warm-up done, and for serve workloads a warm f90yd.
type prepared struct {
	w         workload
	programs  []program
	paths     []string
	refs      []reference
	srv       *server
	ld        *load
	layersErr error // the traced run's adapter failed to build
}

// setup does everything that precedes timing: build the binaries from
// this checkout, generate the sources from the seed, run the correctness
// pass and take each program's reference, then warm up (processes for a
// CLI workload, a started server plus requests for a serve workload).
func setup(e *env, w workload, seed int64, trace bool) (*prepared, error) {
	if err := e.build("f90yrun"); err != nil {
		return nil, err
	}
	if w.serve {
		if err := e.build("f90yd"); err != nil {
			return nil, err
		}
	}
	p := &prepared{w: w, programs: w.programs(seed)}
	if trace {
		p.layersErr = e.build("layers")
	}
	for i, prog := range p.programs {
		path, ref, err := takeReference(e.bin("f90yrun"), e, prog, i == 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", prog.name, err)
		}
		p.paths = append(p.paths, path)
		p.refs = append(p.refs, ref)
	}
	if !w.serve {
		for i := 0; i < w.warm; i++ {
			if err := runCLI(e.bin("f90yrun"), p.paths[0]).check(p.refs[0]); err != nil {
				return nil, fmt.Errorf("warm-up: %v", err)
			}
		}
		return p, nil
	}
	srv, err := startServer(e, w)
	if err != nil {
		return nil, err
	}
	e.track(srv)
	p.srv, p.ld = srv, newLoad(srv, w, p.programs, p.refs)
	warm, _ := p.ld.run(func(issued int64) bool { return issued >= int64(w.warm) })
	for _, s := range warm {
		if s.err != nil {
			p.teardown(e)
			return nil, fmt.Errorf("warm-up: %v", s.err)
		}
	}
	return p, nil
}

func (p *prepared) teardown(e *env) error {
	if p.srv == nil {
		return nil
	}
	e.track(nil)
	err := p.srv.stop()
	p.srv = nil
	return err
}

// runWorkload sets up once, measures on that set-up, and tears it down.
// setup_s is raw wall-clock: the kernel cannot run between the steps of a
// set-up, and timings taken before it followed it no better than none.
func runWorkload(e *env, w workload, seed int64, window time.Duration, trace bool) (*result, error) {
	start := time.Now()
	p, err := setup(e, w, seed, trace)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %v", w.name, err)
	}
	setupS := time.Since(start).Seconds()
	defer p.teardown(e)

	var res *result
	switch {
	case trace:
		res, err = tracedRun(e, p, window)
	case w.serve:
		res, _, err = measureServe(p, window)
	default:
		res, err = measureCLI(e, p, window)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %v", w.name, err)
	}
	if !trace {
		res.metrics["setup_s"] = setupS
		res.notes = append(res.notes, "setup_s: one set-up, raw wall-clock")
	}
	if err := p.teardown(e); err != nil {
		res.fail(fmt.Errorf("f90yd did not drain cleanly: %v", err))
	}
	return res, nil
}

// tailNote states the sample count behind a percentile and whether the
// count supports it (at least ten samples beyond).
func tailNote(name string, pct float64, n int) string {
	note := fmt.Sprintf("%s: p%g of %d ops, %d beyond", name, pct, n, samplesBeyond(n, pct))
	if best := tailPercentile(n); best < pct {
		note += fmt.Sprintf(" (fewer than ten: this run supports p%g)", best)
	}
	return note
}

// measureCLI runs f90yrun processes back to back, with a calibration
// sample before each, until the processes have filled the window: the
// kernel's own time does not count towards it.
func measureCLI(e *env, p *prepared, window time.Duration) (*result, error) {
	res := &result{workload: p.w.name, metrics: map[string]float64{}}
	var wall, cpu, rss []float64
	sp, err := newSpeed()
	if err != nil {
		return nil, err
	}
	defer sp.close()
	start := time.Now()
	for time.Since(start)-sp.spent < window {
		if err := sp.sample(); err != nil {
			return nil, err
		}
		op := runCLI(e.bin("f90yrun"), p.paths[0])
		res.attempted++
		if err := op.check(p.refs[0]); err != nil {
			res.fail(err)
			continue
		}
		wall = append(wall, op.wallMS)
		cpu = append(cpu, op.cpuMS)
		rss = append(rss, op.rssMB)
	}
	busy := time.Since(start) - sp.spent
	if len(wall) == 0 {
		return res, nil
	}
	f := sp.factor()
	res.metrics["op_p50_ms"] = median(wall) * f
	res.metrics["op_tail_ms"] = percentile(sortedCopy(wall), p.w.tailPct) * f
	res.metrics["ops_per_s"] = float64(len(wall)) / busy.Seconds() / f
	res.metrics["cpu_ms"] = median(cpu) * f
	res.metrics["peak_rss_mb"] = median(rss)
	res.metrics["model_cycles"] = p.refs[0].cycles.total()
	res.notes = append(res.notes,
		fmt.Sprintf("op_p50_ms, cpu_ms, peak_rss_mb: medians of %d f90yrun processes; raw op_p50 %.2f ms, cpu %.2f ms", len(wall), median(wall), median(cpu)),
		tailNote("op_tail_ms", p.w.tailPct, len(wall)),
		sp.note())
	return res, nil
}

// serveExtras is what the traced run reports about a serve window beyond
// the end-to-end metrics.
type serveExtras struct {
	samples []reqSample
	before  statsz
	after   statsz
}

// serveSegment is how long the clients run between two kernel timings.
// serveSettle is the pause before a timing that lets f90yd finish a
// garbage collection the traffic left in progress, so the kernel does not
// share the cores with the collector: behind serve_cold it read 54-66 ms
// with no pause and 51-53 ms after 50 ms of pause.
const (
	serveSegment = 500 * time.Millisecond
	serveSettle  = 100 * time.Millisecond
)

// measureServe drives the warm server with the closed-loop clients for
// the window, in segments with a calibration sample before each, as
// measureCLI has one before each process. The clients pause only between
// requests, so no request's latency includes a pause, and the window is
// filled by the segments alone.
func measureServe(p *prepared, window time.Duration) (*result, serveExtras, error) {
	res := &result{workload: p.w.name, metrics: map[string]float64{}}
	var ex serveExtras
	var err error
	if ex.before, err = p.ld.statsz(); err != nil {
		return nil, ex, err
	}
	cpu0, err := p.srv.cpuMS()
	if err != nil {
		return nil, ex, err
	}
	sp, err := newSpeed()
	if err != nil {
		return nil, ex, err
	}
	defer sp.close()
	var samples []reqSample
	var busy time.Duration
	for busy < window {
		time.Sleep(serveSettle)
		if err := sp.sample(); err != nil {
			return nil, ex, err
		}
		segment := time.Now()
		got, took := p.ld.run(func(int64) bool { return time.Since(segment) >= serveSegment })
		samples = append(samples, got...)
		busy += took
	}
	cpu1, err := p.srv.cpuMS()
	if err != nil {
		return nil, ex, err
	}
	rss, err := p.srv.peakRSSMB()
	if err != nil {
		return nil, ex, err
	}
	if ex.after, err = p.ld.statsz(); err != nil {
		return nil, ex, err
	}
	ex.samples = samples

	var lat []float64
	for _, s := range samples {
		res.attempted++
		if s.err != nil {
			res.fail(s.err)
			continue
		}
		lat = append(lat, s.latMS)
	}
	if len(lat) == 0 {
		return res, ex, nil
	}
	var cycles float64
	for _, ref := range p.refs {
		cycles += ref.cycles.total()
	}
	f := sp.factor()
	res.metrics["op_p50_ms"] = median(lat) * f
	res.metrics["op_tail_ms"] = percentile(sortedCopy(lat), p.w.tailPct) * f
	res.metrics["ops_per_s"] = float64(len(lat)) / busy.Seconds() / f
	res.metrics["cpu_ms"] = (cpu1 - cpu0) / float64(len(samples)) * f
	res.metrics["peak_rss_mb"] = rss
	res.metrics["model_cycles"] = cycles
	res.notes = append(res.notes,
		fmt.Sprintf("op_p50_ms: median of %d requests from %d closed-loop clients; raw %.3f ms", len(lat), loadClients(), median(lat)),
		tailNote("op_tail_ms", p.w.tailPct, len(lat)),
		fmt.Sprintf("cpu_ms: f90yd user+sys over the window / %d requests; peak_rss_mb: f90yd VmHWM at the end of the window", len(samples)),
		sp.note())
	return res, ex, nil
}

// startupRuns is how many one-line programs time the process floor.
const startupRuns = 15

// aroundLayers is how many kernel timings precede and follow the
// in-process rounds for host.calib_ms.
const aroundLayers = 8

// tracedRun produces the per-layer metrics: bench/layers in-process on
// the workload's first source, f90yrun's start-up floor, and, for a serve
// workload, the server's own view of a (shorter) window.
func tracedRun(e *env, p *prepared, window time.Duration) (*result, error) {
	if p.layersErr != nil {
		return nil, fmt.Errorf("layers unavailable: %v", p.layersErr)
	}
	res := &result{workload: p.w.name, metrics: map[string]float64{}}
	for _, name := range serverMetricNames {
		res.metrics[name] = 0
	}
	layersWindow := window
	if p.w.serve {
		layersWindow = window / 2
		sres, ex, err := measureServe(p, window-layersWindow)
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed, res.firstErr = sres.attempted, sres.failed, sres.firstErr
		serverMetrics(res, ex)
	}

	onePath, err := e.writeSource("one", oneLiner)
	if err != nil {
		return nil, err
	}
	var startup []float64
	for i := 0; i < startupRuns; i++ {
		op := runCLI(e.bin("f90yrun"), onePath)
		res.attempted++
		if op.err != nil || op.stdout != "1\n" {
			res.fail(fmt.Errorf("one-line program: %v, stdout %q", op.err, op.stdout))
			continue
		}
		startup = append(startup, op.wallMS)
	}
	res.metrics["f90yrun.startup_ms"] = median(startup)
	res.notes = append(res.notes, fmt.Sprintf("f90yrun.startup_ms: median of %d processes", len(startup)))

	// The layer timings are raw; the kernel's time around them says what
	// the host was doing while they were taken.
	sp, err := newSpeed()
	if err != nil {
		return nil, err
	}
	defer sp.close()
	if err := sp.sampleN(aroundLayers); err != nil {
		return nil, err
	}
	rep, err := runLayers(e, p, layersWindow)
	if err != nil {
		return nil, fmt.Errorf("layers unavailable: %v", err)
	}
	if err := sp.sampleN(aroundLayers); err != nil {
		return nil, err
	}
	res.metrics["host.calib_ms"] = median(sp.ms)
	res.attempted += rep.Rounds
	if got := joinOutput(rep.Output); got != p.refs[0].stdout {
		res.fail(fmt.Errorf("in-process output differs from the CLI reference: got %q want %q", clip(got), clip(p.refs[0].stdout)))
	}
	if got := (modelCycles{PE: rep.Cycles.PE, Comm: rep.Cycles.Comm, Host: rep.Cycles.Host}); got.key() != p.refs[0].cycles.key() {
		res.fail(fmt.Errorf("in-process cycles differ from the CLI reference: got %s want %s", got.key(), p.refs[0].cycles.key()))
	}
	for name, v := range rep.Metrics {
		res.metrics[name] = v
	}
	res.notes = append(res.notes, fmt.Sprintf("layer timings: medians of %d in-process rounds on %s; rt.ckpt_*: one checkpoint after the last round", rep.Rounds, p.programs[0].name))
	res.notes = append(res.notes, "self time by layer over all rounds (ms):")
	for i, row := range rep.SelfTime {
		if i == 12 {
			break
		}
		res.notes = append(res.notes, fmt.Sprintf("  %-26s calls %7d  total %10.2f  self %10.2f", row.Name, row.Calls, row.TotalMS, row.SelfMS))
	}
	res.notes = append(res.notes, "Chrome trace: "+filepath.Join(buildDir, "trace-"+p.w.name+".json"))
	return res, nil
}

// layersReport is bench/layers' stdout.
type layersReport struct {
	Rounds  int                `json:"rounds"`
	Metrics map[string]float64 `json:"metrics"`
	Output  []string           `json:"output"`
	Cycles  struct {
		PE, Comm, Host float64
	} `json:"cycles"`
	SelfTime []struct {
		Name    string  `json:"name"`
		Calls   int     `json:"calls"`
		TotalMS float64 `json:"total_ms"`
		SelfMS  float64 `json:"self_ms"`
	} `json:"self_time"`
}

// runLayers execs the layers adapter on the workload's first source. The
// oracle guard always verifies the same small SWE, whatever the workload.
func runLayers(e *env, p *prepared, window time.Duration) (*layersReport, error) {
	oraclePath, err := e.writeSource("oracle", genSWE(rngFor(0, "oracle"), 64, 2))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.bin("layers"),
		"-src", p.paths[0],
		"-oracle-src", oraclePath,
		"-tmp", filepath.Join(e.work, "layers"),
		"-seconds", fmt.Sprint(window.Seconds()),
		"-chrome", filepath.Join(e.root, buildDir, "trace-"+p.w.name+".json"))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var rep layersReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("unparsable layers report: %v", err)
	}
	return &rep, nil
}

// serverMetricNames are the per-layer metrics only a serve workload
// measures; a CLI workload's traced run reports them as 0.
var serverMetricNames = []string{
	"server.queue_ms_p50", "server.run_ms_p50", "server.overhead_ms_p50", "server.req_p99_ms",
	"server.cached_ratio", "server.shed_ratio", "server.cache_evictions",
	"server.journal_records", "server.journal_bytes_per_req", "server.spill_writes",
}

// serverMetrics derives the server layer's metrics from the responses'
// own queue_ms / run_ms and from /statsz after the window.
func serverMetrics(res *result, ex serveExtras) {
	var queue, run, overhead, lat []float64
	cached := 0
	for _, s := range ex.samples {
		if s.err != nil {
			continue
		}
		queue = append(queue, s.queueMS)
		run = append(run, s.runMS)
		overhead = append(overhead, s.latMS-s.queueMS-s.runMS)
		lat = append(lat, s.latMS)
		if s.cached {
			cached++
		}
	}
	if len(lat) == 0 {
		return
	}
	m := res.metrics
	m["server.queue_ms_p50"] = median(queue)
	m["server.run_ms_p50"] = median(run)
	m["server.overhead_ms_p50"] = median(overhead)
	m["server.req_p99_ms"] = percentile(sortedCopy(lat), 99)
	m["server.cached_ratio"] = float64(cached) / float64(len(lat))
	shed := ex.after.Jobs.ByStatus["429"] - ex.before.Jobs.ByStatus["429"]
	m["server.shed_ratio"] = float64(shed) / float64(len(ex.samples))
	m["server.cache_evictions"] = float64(ex.after.Cache.Evictions - ex.before.Cache.Evictions)
	if d0, d1 := ex.before.Durability, ex.after.Durability; d0 != nil && d1 != nil {
		m["server.journal_records"] = float64(d1.JournalRecords - d0.JournalRecords)
		m["server.journal_bytes_per_req"] = float64(d1.JournalBytes-d0.JournalBytes) / float64(len(ex.samples))
		m["server.spill_writes"] = float64(d1.SpillWrites - d0.SpillWrites)
	}
	res.notes = append(res.notes,
		fmt.Sprintf("server.*_p50: medians of %d responses", len(lat)),
		tailNote("server.req_p99_ms", 99, len(lat)))
}
