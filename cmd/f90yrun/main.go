// Command f90yrun compiles a Fortran 90 source file and executes it on
// the simulated CM/2 (or CM-5), printing the program's output followed by
// a performance report from the machine model.
//
// Usage:
//
//	f90yrun [-target cm2|cm5] [-pes N] [-verify] [-metrics] [-trace out.json]
//	        [-profile] [-profile-pprof swe.pb.gz] [-profile-folded swe.folded]
//	        [-timeout 30s] [-max-cycles N] [-numeric off|trap|record]
//	        [-faults spec] [-checkpoint-every N] [-checkpoint file.ckpt]
//	        [-resume file.ckpt] [-distribute a=cyclic]... file.f90
//
// -distribute overrides an array's data distribution without editing
// the source (repeatable; same specs as !HPF$ DISTRIBUTE, e.g.
// "a=cyclic", "b=block,cyclic(2)", "c=*,block"). Source-level !HPF$
// directives need no flag — they are part of the program.
//
// -target names a machine of the target table (internal/driver); -pes
// resizes it: N processing units — PEs on the CM/2, nodes on the CM-5 —
// in place of the machine's full size.
//
// With -verify the program is run through the differential oracle
// (internal/oracle): the reference interpreter and EVERY machine of the
// table execute it — compiled as this run was, -distribute overrides
// included, and with the -pes resize applied to the -target machine —
// and the final stores are cross-checked value-for-value under the
// documented ULP tolerance; a divergence reports the first differing
// variable, element, and backend pair and exits nonzero. -metrics prints
// the phase/counter telemetry report (compile spans plus execution
// cycle attribution) to stderr; -trace writes the same telemetry as
// Chrome trace_event JSON.
//
// -profile prints the source-line cycle profile to stdout: the compiler
// threads source positions from the Fortran tokens through NIR and PEAC,
// and the machine model attributes every modeled PE cycle back to the
// line that generated it (the attribution sums exactly to the report's
// pe cycle total and is bit-identical at every executor width).
// -profile-pprof writes the same attribution as a gzipped pprof profile
// (`go tool pprof -top file.pb.gz`); -profile-folded writes folded
// stacks (routine;file:line;class cycles) for flamegraph tooling.
//
// -timeout bounds the whole compile+run in wall-clock time: past the
// deadline the run stops at the next host-op boundary with an error
// wrapping f90y.ErrCanceled (exit status 3). -max-cycles bounds the run
// in MODELED cycles — the deterministic watchdog: a runaway loop is
// killed at the same cycle on every run with an error wrapping
// rt.ErrBudget (exit status 4), and with checkpointing on, the killed
// run resumes from its last snapshot under a higher budget.
//
// -numeric attaches the numeric-exception plane: "trap" fails the run
// on the first NaN or Inf produced by a PE float op (with PE and
// instruction attribution); "record" tallies exceptional lanes per
// cycle class into the telemetry counters instead.
//
// There is no executor-width flag: each PEAC routine dispatch is sharded
// across GOMAXPROCS host worker goroutines over disjoint element ranges
// (internal/driver derives the width; a dispatch of a single 4,096-
// element chunk runs inline). Results — stores, output, cycle totals,
// GFLOPS, numeric tallies — are bit-identical at every width; only host
// wall-clock changes. The analytic cycle model is untouched: it prices
// the simulated machine, not the host.
//
// There is no engine flag: a node routine is decoded, on its first
// dispatch, into one translated form — a step per instruction, each the
// op's lane loop from the peac op table with its operands resolved —
// and every dispatch runs that form (DESIGN.md "The executor"). Its fast
// path (dead loads read in place, fused pairs, sunk stores) is granted
// or refused per dispatch; -metrics counts each refusal and its reason
// (exec/fastpath-refused/*). Results are bit-identical either way.
//
// -faults attaches a deterministic fault-injection plan (see
// internal/faults.ParseSpec for the full key list). -checkpoint-every N
// snapshots the machine to -checkpoint (default <file>.ckpt) every
// N host boundaries; -resume restarts a run from such a snapshot — a
// run killed by an injected fatal fault continues from its last
// checkpoint and produces the same final store as an uninterrupted run.
//
// The command is a thin shell over internal/driver, the same service
// layer swebench's batch mode uses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"f90y"
	"f90y/internal/driver"
	"f90y/internal/faults"
	"f90y/internal/obs"
	"f90y/internal/oracle"
	"f90y/internal/rt"
)

var (
	flagTarget  = flag.String("target", driver.Targets[0].Name, "target machine: "+driver.TargetNames())
	flagPEs     = flag.Int("pes", 0, "processing units of the target machine: PEs on cm2, nodes on cm5 (0 = the machine's full size)")
	flagVerify  = flag.Bool("verify", false, "cross-check the interpreter and every target machine (differential oracle)")
	flagMetrics = flag.Bool("metrics", false, "print the telemetry report to stderr")
	flagTrace   = flag.String("trace", "", "write a Chrome trace_event JSON file")
	flagTimeout = flag.Duration("timeout", 0, "abort the compile+run after this duration (0 = no limit)")
	flagMaxCyc  = flag.Float64("max-cycles", 0, "kill the run after this many modeled cycles (0 = no budget)")
	flagNumeric = flag.String("numeric", "", "numeric-exception plane: off, trap, or record")
	flagFaults  = flag.String("faults", "", driver.FaultsHelp)
	flagCkEvery = flag.Int("checkpoint-every", 0, "write a checkpoint every N host boundaries (0 = off)")
	flagCkPath  = flag.String("checkpoint", "", "checkpoint file path (default <file>.ckpt)")
	flagResume  = flag.String("resume", "", "resume from a checkpoint file")
	flagProf    = flag.Bool("profile", false, "print the source-annotated cycle profile (hot lines + listing) to stdout")
	flagProfPB  = flag.String("profile-pprof", "", "write a pprof protobuf profile (open with go tool pprof)")
	flagProfFG  = flag.String("profile-folded", "", "write folded stacks for flamegraph tooling")
	flagDist    distributeFlags
)

// distributeFlags collects the repeatable -distribute overrides.
type distributeFlags []string

func (d *distributeFlags) String() string { return strings.Join(*d, " ") }
func (d *distributeFlags) Set(v string) error {
	*d = append(*d, v)
	return nil
}

func init() {
	flag.Var(&flagDist, "distribute",
		"override an array's data distribution, array=spec (repeatable), e.g. a=cyclic or b=block,cyclic(2)")
}

// fail reports a run error; an injected fatal fault or a budget kill
// points at the checkpoint so the user knows the run is resumable, and
// deadline expiry (3) and budget exhaustion (4) exit with distinct
// statuses.
func fail(file string, err error) {
	fmt.Fprintln(os.Stderr, "f90yrun:", err)
	if (errors.Is(err, faults.ErrFatal) || errors.Is(err, rt.ErrBudget)) && *flagCkEvery > 0 {
		fmt.Fprintln(os.Stderr, "f90yrun: resume with -resume", driver.CheckpointPath(file, *flagCkPath))
	}
	if errors.Is(err, f90y.ErrCanceled) {
		os.Exit(3)
	}
	if errors.Is(err, rt.ErrBudget) {
		os.Exit(4)
	}
	os.Exit(1)
}

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: f90yrun [flags] file.f90")
		os.Exit(2)
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "f90yrun:", err)
		os.Exit(1)
	}

	ctx := context.Background()
	if *flagTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *flagTimeout)
		defer cancel()
	}

	// -metrics and -trace render one collector.
	cfg := f90y.DefaultConfig()
	var col *obs.Collector
	if *flagMetrics || *flagTrace != "" {
		col = obs.NewCollector()
		cfg.Obs = col
	}
	cfg.Distribute = flagDist
	machine, err := driver.Target(*flagTarget, *flagPEs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "f90yrun: -target/-pes:", err)
		os.Exit(2)
	}

	ctl, err := driver.ControlOptions{
		Faults:          *flagFaults,
		CheckpointEvery: *flagCkEvery,
		CheckpointPath:  *flagCkPath,
		ResumePath:      *flagResume,
		MaxCycles:       *flagMaxCyc,
		Numeric:         *flagNumeric,
	}.Build(file, cfg.Obs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "f90yrun:", err)
		os.Exit(2)
	}

	svc := driver.New(1)
	res := svc.Run(ctx, driver.Job{
		Name:    file,
		File:    file,
		Source:  string(src),
		Config:  cfg,
		Machine: machine,
		Ctl:     ctl,
	})
	if res.Err != nil {
		fail(file, res.Err)
	}

	r := res.Result
	size := fmt.Sprintf("%d %ss", machine.Units, machine.Unit)
	if machine.Lanes > 1 {
		size += fmt.Sprintf(" x %d lanes", machine.Lanes)
	}
	report := fmt.Sprintf(
		"%s: %s @ %.0f MHz | %.3f modeled ms | %.2f GFLOPS | %d node calls, %d comm calls\n"+
			"cycles: pe %.0f, comm %.0f, host %.0f | flops %d",
		machine.Name, size, machine.ClockHz/1e6, r.Seconds()*1e3, r.GFLOPS(),
		r.NodeCalls, r.CommCalls, r.PECycles, r.CommCycles, r.HostCycles, r.Flops)
	if r.Faults != nil {
		report += "\n" + faultLine(r.Faults)
	}
	if r.Numeric != nil && r.Numeric.Mode == rt.NumericRecord {
		report += "\n" + numericLine(r.Numeric)
	}
	if *flagVerify {
		// What ran is what is verified: the run's own config, and its
		// machine standing in for its table entry. A divergence (or any
		// backend failure) is fatal.
		rep, err := oracle.Verify(file, string(src), oracle.Options{
			Config: &cfg, Targets: driver.TargetsWith(machine), MaxCycles: *flagMaxCyc,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "f90yrun: verify:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "verify: %d variables, %d values agree across %s (<=%d ulps)\n",
			rep.Vars, rep.Elems, strings.Join(rep.Backends, ", "), uint64(oracle.DefaultULPs))
	}

	for _, line := range r.Output {
		fmt.Println(line)
	}
	prof := driver.ProfileOptions{Text: *flagProf, Pprof: *flagProfPB, Folded: *flagProfFG}
	if err := prof.Emit(res.Profile(), os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "f90yrun:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, report)
	if *flagMetrics {
		fmt.Fprint(os.Stderr, col.Report())
	}
	if *flagTrace != "" {
		if err := driver.WriteFile(*flagTrace, col.WriteTrace); err != nil {
			fmt.Fprintln(os.Stderr, "f90yrun:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", *flagTrace)
	}
}

// faultLine summarizes the fault plane's activity for the report.
func faultLine(s *faults.Stats) string {
	total := int64(0)
	for _, n := range s.Injected {
		total += n
	}
	return fmt.Sprintf("faults: %d injected | %d retries (%.0f cycles) | %d PEs degraded",
		total, s.Retries, s.RetryCycles, s.Degraded)
}

// numericLine summarizes the numeric-exception tallies for the report.
func numericLine(n *rt.Numeric) string {
	nan, inf := int64(0), int64(0)
	for _, c := range n.NaN {
		nan += c
	}
	for _, c := range n.Inf {
		inf += c
	}
	return fmt.Sprintf("numeric: %d NaN lanes, %d Inf lanes recorded", nan, inf)
}
