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
//
// -dump stats prints the compilation phase/counter report. -O=false
// compiles under f90y.CMFConfig's NIR passes — section padding without
// cross-statement blocking. f90yc compiles; it never runs the program.
// The full telemetry report, the Chrome trace and fault injection —
// compile spans plus the "exec" span and the cycle attribution — are
// f90yrun's -metrics, -trace and -faults.
package main

import (
	"flag"
	"fmt"
	"os"

	"f90y"
	"f90y/internal/ast"
	"f90y/internal/fe"
	"f90y/internal/nir"
	"f90y/internal/obs"
	"f90y/internal/opt"
	"f90y/internal/pe"
)

var (
	flagDump = flag.String("dump", "peac", "dump: ast, nir, opt, peac, host, stats, none")
	flagO    = flag.Bool("O", true, "enable the NIR shape transformations (blocking, padding)")
	flagPE   = flag.String("pe", "optimized", "PE code generator: naive or optimized")
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
		cfg.Opt = f90y.CMFConfig().Opt
	}
	if *flagPE == "naive" {
		cfg.PE = pe.Naive
	}

	var col *obs.Collector
	if *flagDump == "stats" {
		col = obs.NewCollector()
		cfg.Obs = col
	}

	comp, err := f90y.Compile(file, string(src), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	switch *flagDump {
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
		fmt.Print(col.Report())
	default:
		fmt.Fprintf(os.Stderr, "f90yc: unknown dump %q\n", *flagDump)
		os.Exit(2)
	}
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
