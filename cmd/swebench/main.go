// Command swebench reproduces the experiments of the paper's evaluation
// (§6 and the worked figures) on the simulated CM/2, printing
// paper-versus-measured tables, and is the harness the tier-1 gates
// drive: the modeled-fields golden, the chaos soak, the layout sweep,
// and the two server gates. It measures modeled cycles only; wall-clock
// evidence is the repository benchmark's job (bench/, BENCHMARK.json).
//
// Usage:
//
//	swebench [-n 1024] [-steps 4] [e1 e2 e3 e4 e5 e6 e7]
//	swebench -json [-o BENCH_swe.json] [-n 1024] [-steps 4] [-faults SPEC]
//	swebench -layout-sweep [-layout-verify] [-o BENCH_layout.json]
//	swebench -soak N [-json [-o SOAK.json]]
//	swebench -serve ./f90yd [-restart N] [-o LOAD_swe.json|CRASH_swe.json]
//
// With -serve the suite launches the named f90yd on a loopback port,
// drives it through one client and requires a clean SIGTERM drain (see
// serve.go). Alone it is the load gate: a deterministic mix of healthy,
// verified, fault-injected, budget-killer and oversized jobs plus an
// overflow burst; every response must be in the documented error
// taxonomy (any 500 fails the run), the burst must be shed as both 429
// tenant_busy and 429 queue_full, and a "f90y-load/v3" record of
// per-class status and error-code counts goes to -o. With -restart N it
// is the crash gate: on a durable state dir the server is SIGKILLed
// mid-load and relaunched N times, then N times more under torn/short
// durable-write injection, and the command fails unless every
// acknowledged job recovers with a result byte-identical to an
// uninterrupted baseline — or, under injection, is lost ONLY as a
// server-reported casualty. A "f90y-crash/v2" record goes to -o.
//
// The arguments name the experiments to render, in order; none renders
// all seven. No other mode takes arguments. The experiments render
// through one pool sized from GOMAXPROCS — there is no pool-size flag
// (suitePool): each experiment renders into its own buffer, buffers
// print in experiment order, and every table is byte-identical for
// every pool size — the experiments share one compile cache
// (internal/driver) but no mutable run state.
//
// With -json the SWE benchmark runs once and a machine-readable record
// of its modeled fields (schema "f90y-bench/v2", see json.go) is
// written to -o (default BENCH_swe_n<N>_s<steps>.json); the output path
// is printed to stdout. The record is byte-deterministic — it is the
// golden `make modeled-check` compares — and carries a "profile"
// summary (total attributed cycles + five hottest source lines); the
// full profile artifacts are `f90yrun -profile DEST`.
//
// With -layout-sweep the router-heavy kernel trio (transpose, FFT
// butterfly, irregular gather) runs under BLOCK / CYCLIC / ALIGN'd
// !HPF$ data distributions and a deterministic "f90y-layout/v1" record
// (per-layout cycles, NEWS/router/reduce split, best layout, spread)
// is written to -o (default BENCH_layout_n65536_i2.json; see
// layout.go). The sweep runs at one size, the golden's: n=65536,
// iters=2. -layout-verify first pushes every (kernel, layout) pair
// through the differential oracle at a reduced size.
//
// With -soak N the suite's kernels are verified through the
// differential oracle and chaos-soaked across N seeds x fault plans x
// every target on a GOMAXPROCS-wide pool (see soak.go);
// fault-invariance violations are minimized to reproducer specs under
// soak-repros/ and fail the command. -json writes a
// "f90y-soak/v1" record to -o (default stdout).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/driver"
	"f90y/internal/fe"
	"f90y/internal/pe"
	"f90y/internal/peac"
	"f90y/internal/starlisp"
	"f90y/internal/workload"
)

var (
	flagN         = flag.Int("n", 1024, "SWE grid edge")
	flagSteps     = flag.Int("steps", 4, "SWE time steps")
	flagJSON      = flag.Bool("json", false, "write a machine-readable record of the modeled fields instead of tables")
	flagOut       = flag.String("o", "", "output path for the mode's record (defaults depend on mode)")
	flagFaults    = flag.String("faults", "", driver.FaultsHelp)
	flagSoak      = flag.Int("soak", 0, "chaos-soak: verify all kernels differentially, then sweep N seeds x fault plans x backends")
	flagServe     = flag.String("serve", "", "server gate: launch this f90yd, drive it with the load mix (or with -restart, the crash schedule), drain it and write a record")
	flagLayout    = flag.Bool("layout-sweep", false, "sweep the kernel trio across !HPF$ data distributions and write a f90y-layout/v1 record")
	flagLayoutVer = flag.Bool("layout-verify", false, "with -layout-sweep: oracle-verify each (kernel, layout) pair at a reduced size first")
	flagRestart   = flag.Int("restart", 0, "with -serve: SIGKILL and relaunch the server N times mid-load, clean and then under write faults, verifying bit-identical recovery")
)

// experiment is one reproduction: it renders its table to w, running
// compiles and executions through the shared service.
type experiment struct {
	id string
	fn func(w io.Writer, svc *driver.Service, n, steps int) error
}

// experiments lists the suite in presentation order.
var experiments = []experiment{
	{"e1", e1}, {"e2", e2}, {"e3", e3}, {"e4", e4}, {"e5", e5}, {"e6", e6}, {"e7", e7},
}

func main() {
	flag.Parse()
	tables := !*flagJSON && *flagSoak <= 0 && !*flagLayout && *flagServe == "" && *flagRestart <= 0
	if flag.NArg() > 0 && !tables {
		fmt.Fprintln(os.Stderr, "swebench: experiment names select tables; no other mode takes arguments")
		os.Exit(2)
	}
	if *flagServe != "" || *flagRestart > 0 {
		if err := runServe(os.Stdout, *flagServe, *flagRestart, *flagOut); err != nil {
			die(err)
		}
		return
	}
	if *flagSoak > 0 {
		failures, err := runSoak(os.Stdout, *flagSoak, *flagJSON, *flagOut)
		if err != nil {
			die(err)
		}
		if failures > 0 {
			os.Exit(1)
		}
		return
	}
	if *flagLayout {
		if err := runLayoutSweep(os.Stdout, *flagOut, *flagLayoutVer); err != nil {
			die(err)
		}
		return
	}
	if *flagJSON {
		writeJSON(*flagOut, *flagN, *flagSteps)
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		for _, e := range experiments {
			ids = append(ids, e.id)
		}
	}
	svc, pool := suitePool(len(ids))
	if err := runSuite(os.Stdout, svc, ids, *flagN, *flagSteps, pool); err != nil {
		die(err)
	}
}

// suitePool sizes the experiment pool and the service together: one
// pool worker per experiment, up to GOMAXPROCS, and a service of as
// many workers, so each run's executor width — GOMAXPROCS / service
// workers, derived in internal/driver — times the pool covers the host.
func suitePool(experiments int) (*driver.Service, int) {
	pool := max(1, min(runtime.GOMAXPROCS(0), experiments))
	return driver.New(pool), pool
}

// runSuite executes the named experiments against one shared service
// on a pool of workers goroutines (workers <= 1: a pool of one, which
// takes them in order). Each renders into a private buffer and buffers
// flush to w in experiment order as they finish, so the bytes written
// do not depend on the pool size.
func runSuite(w io.Writer, svc *driver.Service, ids []string, n, steps, workers int) error {
	byID := map[string]func(io.Writer, *driver.Service, int, int) error{}
	for _, e := range experiments {
		byID[e.id] = e.fn
	}
	blank := len(ids) > 1 // several tables are separated by a blank line
	for _, id := range ids {
		if byID[id] == nil {
			return fmt.Errorf("unknown experiment %q", id)
		}
	}

	type slot struct {
		buf  bytes.Buffer
		err  error
		done chan struct{}
	}
	slots := make([]slot, len(ids))
	next := make(chan int, len(ids))
	for i := range slots {
		slots[i].done = make(chan struct{})
		next <- i
	}
	close(next)
	for range max(workers, 1) {
		go func() {
			for i := range next {
				slots[i].err = byID[ids[i]](&slots[i].buf, svc, n, steps)
				close(slots[i].done)
			}
		}()
	}
	for i := range slots {
		<-slots[i].done
		if slots[i].err != nil {
			return fmt.Errorf("%s: %w", ids[i], slots[i].err)
		}
		if _, err := w.Write(slots[i].buf.Bytes()); err != nil {
			return err
		}
		if blank {
			fmt.Fprintln(w)
		}
	}
	return nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "swebench:", err)
	os.Exit(1)
}

// runF90Y compiles (through the shared cache) and runs one program on
// the default CM/2.
func runF90Y(svc *driver.Service, file, src string, cfg f90y.Config) (*cm2.Result, error) {
	res := svc.Run(context.Background(), driver.Job{Name: file, File: file, Source: src, Config: cfg})
	return res.Result, res.Err
}

// compileF90Y compiles through the shared cache without running.
func compileF90Y(svc *driver.Service, file, src string, cfg f90y.Config) (*fe.Program, error) {
	art, err := svc.Compile(context.Background(), file, src, cfg)
	if err != nil {
		return nil, err
	}
	return art.Program, nil
}

// e1 is the §6 performance table: SWE sustained GFLOPS for hand-coded
// *Lisp (fieldwise), the CMF v1.1 model, and Fortran-90-Y.
func e1(w io.Writer, svc *driver.Service, n, steps int) error {
	src := workload.SWE(n, steps)

	_, sl := starlisp.RunSWE(n, steps, starlisp.DefaultModel)
	slGF := sl.GFLOPS(starlisp.DefaultModel.ClockHz)

	cmfRes, err := runF90Y(svc, "swe.f90", src, f90y.CMFConfig())
	if err != nil {
		return err
	}

	f90yRes, err := runF90Y(svc, "swe.f90", src, f90y.DefaultConfig())
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "E1 (§6): SWE sustained performance, %dx%d grid, %d steps, 2048 PEs @ 7 MHz\n", n, n, steps)
	fmt.Fprintf(w, "%-28s %-14s %s\n", "system", "modeled GF", "paper GF")
	fmt.Fprintf(w, "%-28s %-14.2f %.2f\n", "hand-coded *Lisp (fieldwise)", slGF, 1.89)
	fmt.Fprintf(w, "%-28s %-14.2f %.2f\n", "CM Fortran v1.1 (model)", cmfRes.GFLOPS(), 2.79)
	fmt.Fprintf(w, "%-28s %-14.2f %.2f\n", "Fortran-90-Y", f90yRes.GFLOPS(), 2.99)
	fmt.Fprintf(w, "detail: f90y cycles/step pe=%.0f comm=%.0f host=%.0f calls=%d | cmf calls=%d\n",
		f90yRes.PECycles/float64(steps), f90yRes.CommCycles/float64(steps),
		f90yRes.HostCycles/float64(steps), f90yRes.NodeCalls, cmfRes.NodeCalls)
	return nil
}

// blocking renders a blocking experiment: src's node calls and total
// cycles compiled one statement at a time (the row named unblocked) and
// by the full compiler.
func blocking(w io.Writer, svc *driver.Service, title, file, src, unblocked string) error {
	with, err := runF90Y(svc, file, src, f90y.DefaultConfig())
	if err != nil {
		return err
	}
	without, err := runF90Y(svc, file, src, f90y.CMFConfig())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-24s %-12s %s\n", "configuration", "node calls", "total cycles")
	fmt.Fprintf(w, "%-24s %-12d %.0f\n", unblocked, without.NodeCalls, without.TotalCycles())
	fmt.Fprintf(w, "%-24s %-12d %.0f\n", "blocked (F90-Y)", with.NodeCalls, with.TotalCycles())
	return nil
}

// e2 is the Fig. 9 domain-blocking transformation: phase counts before and
// after.
func e2(w io.Writer, svc *driver.Service, n, steps int) error {
	return blocking(w, svc, "E2 (Fig. 9): domain blocking — like-shape moves fuse into one computation block",
		"fig9.f90", workload.Fig9(64), "naive (per statement)")
}

// e3 is the Fig. 10 masked-assignment blocking experiment.
func e3(w io.Writer, svc *driver.Service, n, steps int) error {
	return blocking(w, svc, "E3 (Fig. 10): masked-assignment blocking — disjoint masked sections share a block",
		"fig10.f90", workload.Fig10(32), "unblocked")
}

// e4 is the Fig. 11 partition-structure experiment over an alternating
// phase graph.
func e4(w io.Writer, svc *driver.Service, n, steps int) error {
	src := workload.Fig11(64, 16)
	naive, err := compileF90Y(svc, "fig11.f90", src, f90y.CMFConfig())
	if err != nil {
		return err
	}
	blocked, err := compileF90Y(svc, "fig11.f90", src, f90y.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E4 (Fig. 11): naive vs blocked vs partitioned program structure")
	fmt.Fprintf(w, "%-24s %-16s %-12s %s\n", "configuration", "node routines", "comm calls", "host ops")
	n1 := naive.CountOps()
	n2 := blocked.CountOps()
	fmt.Fprintf(w, "%-24s %-16d %-12d %d\n", "naive", n1["callnode"], n1["comm"], n1["assign"])
	fmt.Fprintf(w, "%-24s %-16d %-12d %d\n", "blocked+partitioned", n2["callnode"], n2["comm"], n2["assign"])
	return nil
}

// e5 is the Fig. 12 naive-versus-optimized PEAC encoding of the SWE
// excerpt.
func e5(w io.Writer, svc *driver.Service, n, steps int) error {
	// Per-statement partitioning isolates the Fig. 12 statement as its own
	// PEAC routine; only the PE/NIR optimization level differs.
	src := workload.Fig12(64)
	compN, err := compileF90Y(svc, "fig12.f90", src, f90y.Config{Opt: f90y.CMFConfig().Opt, PE: pe.Naive})
	if err != nil {
		return err
	}
	compO, err := compileF90Y(svc, "fig12.f90", src, f90y.CMFConfig())
	if err != nil {
		return err
	}
	rn, ro := largest(compN), largest(compO)
	cm := peac.DefaultCost
	fmt.Fprintln(w, "E5 (Fig. 12): SWE excerpt, naive vs optimized PEAC encoding")
	fmt.Fprintf(w, "%-12s %-14s %-14s %s\n", "encoding", "instructions", "issue slots", "cycles/iter")
	fmt.Fprintf(w, "%-12s %-14d %-14d %d\n", "naive", rn.InstrCount(), rn.IssueSlots(), cm.BodyCycles(rn.Body))
	fmt.Fprintf(w, "%-12s %-14d %-14d %d\n", "optimized", ro.InstrCount(), ro.IssueSlots(), cm.BodyCycles(ro.Body))
	fmt.Fprintln(w, "\nnaive encoding:")
	fmt.Fprint(w, rn.Format())
	fmt.Fprintln(w, "\noptimized encoding:")
	fmt.Fprint(w, ro.Format())
	return nil
}

// e6 is the §5.2 spill-pressure experiment: cycles as live values exceed
// the eight vector registers (one spill/restore pair = 18 cycles ≈ three
// vector ops).
func e6(w io.Writer, svc *driver.Service, n, steps int) error {
	fmt.Fprintln(w, "E6 (§5.2): spill pressure sweep (spill/restore pair = 18 cycles)")
	fmt.Fprintf(w, "%-8s %-14s %-12s %s\n", "terms", "instructions", "spill slots", "cycles/iter")
	for _, terms := range []int{4, 6, 8, 10, 12, 16} {
		src := workload.SpillKernel(1024, terms)
		comp, err := compileF90Y(svc, "spill.f90", src, f90y.DefaultConfig())
		if err != nil {
			return err
		}
		r := largest(comp)
		fmt.Fprintf(w, "%-8d %-14d %-12d %d\n", terms, r.InstrCount(), r.SpillSlots, peac.DefaultCost.BodyCycles(r.Body))
	}
	return nil
}

// largest is p's node routine with the most instructions.
func largest(p *fe.Program) *peac.Routine {
	var best *peac.Routine
	for _, r := range p.Routines {
		if best == nil || r.InstrCount() > best.InstrCount() {
			best = r
		}
	}
	return best
}

// e7 is the §5.3.1 CM-5 retarget: the same partitioned program runs on
// every machine of the target table, one row each; a machine whose
// nodes pay a per-dispatch setup also reports the three-way split.
func e7(w io.Writer, svc *driver.Service, n, steps int) error {
	src := workload.SWE(n, steps)
	prog, err := compileF90Y(svc, "swe.f90", src, f90y.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E7 (§5.3.1): CM-5 retarget — identical front end, three-way node split")
	fmt.Fprintf(w, "%-10s %-12s %-16s %s\n", "target", "GFLOPS", "node calls", "comm cycles")
	var splits bytes.Buffer
	for _, t := range driver.Targets {
		res, err := t.Run(context.Background(), prog, nil, nil, nil)
		if err != nil {
			return err
		}
		// The paper's spelling of a machine name: "cm5" is the CM-5.
		name := strings.ToUpper(t.Name[:2]) + "-" + t.Name[2:]
		fmt.Fprintf(w, "%-10s %-12.2f %-16d %.0f\n", name, res.GFLOPS(), res.NodeCalls, res.CommCycles)
		if sp := res.Split; sp.Setup != 0 {
			fmt.Fprintf(&splits, "%s node split: SPARC issue %.0f cycles, vector units %.0f cycles\n",
				name, sp.Setup, sp.Vector)
		}
	}
	_, err = w.Write(splits.Bytes())
	return err
}
