// Command f90yc is the Fortran-90-Y compiler driver: it compiles a
// Fortran 90 source file through the full pipeline and dumps whichever
// intermediate representation is requested.
//
// Usage:
//
//	f90yc [flags] file.f90
//
//	-dump ast|nir|opt|peac|host|stats|none  what to print (default peac)
//	-O                                   optimization level (default true)
//	-pe naive|optimized                  PE code generator level
//	-v                                   print the phase/counter report to stderr
//	-metrics                             run the program, print the full report
//	-trace out.json                      run the program, write a Chrome trace
//	-faults spec                         inject faults during -metrics/-trace runs
//
// -metrics and -trace execute the compiled program on the modeled CM/2
// so the report and trace include the "exec" span and the cycle
// attribution counters; the trace file loads in chrome://tracing or
// ui.perfetto.dev. When any of -v/-metrics/-trace is given, -dump
// defaults to none.
//
// Compilation goes through internal/driver — the same cached service
// layer behind f90yrun and swebench — so flag semantics and fault-spec
// parsing cannot drift between the commands.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"f90y"
	"f90y/internal/ast"
	"f90y/internal/driver"
	"f90y/internal/fe"
	"f90y/internal/nir"
	"f90y/internal/obs"
	"f90y/internal/opt"
	"f90y/internal/pe"
)

var (
	flagDump    = flag.String("dump", "peac", "dump: ast, nir, opt, peac, host, stats, none")
	flagO       = flag.Bool("O", true, "enable the NIR shape transformations (blocking, padding)")
	flagPE      = flag.String("pe", "optimized", "PE code generator: naive or optimized")
	flagV       = flag.Bool("v", false, "print the compilation phase/counter report to stderr")
	flagMetrics = flag.Bool("metrics", false, "run the program and print the full telemetry report")
	flagTrace   = flag.String("trace", "", "run the program and write a Chrome trace_event JSON file")
	flagFaults  = flag.String("faults", "", driver.FaultsHelp)
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: f90yc [flags] file.f90")
		os.Exit(2)
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "f90yc:", err)
		os.Exit(1)
	}

	cfg := f90y.Config{Opt: opt.Default, PE: pe.Optimized}
	if !*flagO {
		cfg.Opt = opt.Options{PadSections: true}
	}
	if *flagPE == "naive" {
		cfg.PE = pe.Naive
	}

	// Telemetry requests share one collector; stats dumps render from it
	// too, so there is a single formatting path for phase statistics.
	tel := driver.NewTelemetry(*flagMetrics, *flagTrace)
	if (*flagV || *flagDump == "stats") && tel.Col == nil {
		tel.Col = obs.NewCollector()
	}
	cfg.Obs = tel.Recorder()

	// Telemetry flags change the default output from a peac dump to none;
	// an explicit -dump still wins.
	dump := *flagDump
	if (*flagV || *flagMetrics || *flagTrace != "") && !dumpSetExplicitly() {
		dump = "none"
	}

	ctx := context.Background()
	comp, err := f90y.CompileCtx(ctx, file, string(src), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// -metrics/-trace execute the program so the report and trace carry
	// the exec span and cycle attribution (and, with -faults, the
	// injected-fault events and recovery counters).
	if *flagMetrics || *flagTrace != "" {
		ctl, err := driver.ControlOptions{Faults: *flagFaults}.Build(file, cfg.Obs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "f90yc:", err)
			os.Exit(2)
		}
		res, err := comp.Run(ctx, &ctl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "f90yc:", err)
			os.Exit(1)
		}
		for _, line := range res.Output {
			fmt.Println(line)
		}
	}

	switch dump {
	case "none":
	case "ast":
		fmt.Print(ast.Format(comp.AST))
	case "nir":
		fmt.Print(nir.Print(comp.Module.Prog))
	case "opt":
		fmt.Print(nir.Print(comp.Optimized.Prog))
	case "peac":
		for _, r := range comp.Program.Routines {
			fmt.Print(r.Format())
			fmt.Println()
		}
	case "host":
		printHost(comp.Program.Ops, 0)
	case "stats":
		fmt.Print(tel.Col.Report())
	default:
		fmt.Fprintf(os.Stderr, "f90yc: unknown dump %q\n", dump)
		os.Exit(2)
	}

	if *flagMetrics {
		fmt.Print(tel.Col.Report())
	} else if *flagV && dump != "stats" {
		fmt.Fprint(os.Stderr, tel.Col.Report())
	}
	if err := tel.WriteTrace(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "f90yc:", err)
		os.Exit(1)
	}
}

func dumpSetExplicitly() bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "dump" {
			set = true
		}
	})
	return set
}

func printHost(ops []fe.Op, depth int) {
	ind := ""
	for i := 0; i < depth; i++ {
		ind += "  "
	}
	for _, op := range ops {
		switch op := op.(type) {
		case fe.Assign:
			fmt.Printf("%sassign %s <- %s\n", ind, nir.PrintValue(op.Tgt), nir.PrintValue(op.Src))
		case fe.CallNode:
			fmt.Printf("%scall-node %s over %s (%d params)\n", ind, op.Routine.Name, op.Over, len(op.Routine.Params))
		case fe.Comm:
			fmt.Printf("%scomm %s\n", ind, summarizeComm(op))
		case fe.If:
			fmt.Printf("%sif %s\n", ind, nir.PrintValue(op.Cond))
			printHost(op.Then, depth+1)
			if len(op.Else) > 0 {
				fmt.Printf("%selse\n", ind)
				printHost(op.Else, depth+1)
			}
		case fe.While:
			fmt.Printf("%swhile %s\n", ind, nir.PrintValue(op.Cond))
			printHost(op.Body, depth+1)
		case fe.DoSerial:
			fmt.Printf("%sdo %s\n", ind, op.S)
			printHost(op.Body, depth+1)
		case fe.Print:
			fmt.Printf("%sprint (%d items)\n", ind, len(op.Args))
		case fe.Stop:
			fmt.Printf("%sstop\n", ind)
		}
	}
}

func summarizeComm(op fe.Comm) string {
	for _, g := range op.Move.Moves {
		if fc, ok := g.Src.(nir.FcnCall); ok {
			return fc.Name
		}
	}
	return "general-router move"
}
