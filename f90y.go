// Package f90y is the public entry point to the Fortran-90-Y prototype
// compiler, a reproduction of "Prototyping Fortran-90 Compilers for
// Massively Parallel Machines" (Chen & Cowie, PLDI 1992). It drives the
// full pipeline of the paper's Fig. 2:
//
//	Fortran 90 source
//	  -> front end (lexer/parser)            internal/lexer, internal/parser
//	  -> semantic lowering to NIR            internal/lower   (§4.1)
//	  -> NIR shape transformations           internal/opt     (§4.2)
//	  -> CM2/NIR partition into host + node  internal/partition (§5.1)
//	       host remainder  -> FE host IR     internal/fe      (§5.2)
//	       compute blocks  -> PEAC routines  internal/pe, internal/peac
//	  -> execution on the simulated CM/2     internal/cm2, internal/rt
//
// A typical use:
//
//	comp, err := f90y.Compile("swe.f90", source, f90y.DefaultConfig())
//	if err != nil { ... }
//	res, err := comp.Run(ctx, nil)
//	fmt.Println(res.GFLOPS(), res.Output)
package f90y

import (
	"context"
	"fmt"
	"runtime/debug"

	"f90y/internal/ast"
	"f90y/internal/cm2"
	"f90y/internal/fe"
	"f90y/internal/interp"
	"f90y/internal/lexer"
	"f90y/internal/lower"
	"f90y/internal/obs"
	"f90y/internal/opt"
	"f90y/internal/parser"
	"f90y/internal/partition"
	"f90y/internal/pe"
	"f90y/internal/rt"
	"f90y/internal/source"
)

// ErrCanceled is the sentinel wrapped by every error CompileCtx or a
// ctx-aware Run variant returns because its context was canceled or its
// deadline expired; the context's own cause (context.Canceled or
// context.DeadlineExceeded) is wrapped alongside it.
var ErrCanceled = rt.ErrCanceled

// Config selects the optimization level and target machine for a
// compilation.
type Config struct {
	// Opt selects the NIR transformation passes (§4.2). The zero value
	// disables them; use opt.Default for the full compiler.
	Opt opt.Options
	// PE selects the PE/NIR code generator optimizations (§5.2).
	PE pe.Options
	// Machine is the simulated target; nil means the default 2,048-PE,
	// 7 MHz CM/2.
	Machine *cm2.Machine
	// Obs receives compilation and execution telemetry: one span per
	// pipeline phase (lex, parse, lower, each opt pass, partition,
	// pe-codegen per routine, exec) plus each phase's statistics as
	// counters. nil disables recording at the cost of one branch per
	// instrumented call site; use an *obs.Collector to record.
	Obs obs.Recorder
	// Distribute overrides or supplies per-array data distributions
	// without editing the source: each spec is "array=fmt,fmt,..."
	// using the !HPF$ DISTRIBUTE dimension-format grammar, e.g.
	// "a=block,cyclic(2)". Specs are validated like source directives
	// and take precedence over them. Part of the compile-cache key.
	Distribute []string
}

// DefaultConfig is the fully optimizing Fortran-90-Y configuration.
func DefaultConfig() Config {
	return Config{Opt: opt.Default, PE: pe.Optimized, Machine: cm2.Default()}
}

// Compilation is the result of compiling one program: every intermediate
// artifact of the pipeline, retained for inspection and tooling.
type Compilation struct {
	AST       *ast.Program
	Module    *lower.Module // typechecked, shapechecked NIR (§4.1)
	Optimized *lower.Module // after shape transformations (§4.2)
	OptStats  opt.Stats
	Program   *fe.Program // partitioned host program + PEAC routines
	PartStats partition.Stats
	Machine   *cm2.Machine
	Obs       obs.Recorder // telemetry sink carried from Config (may be nil)
}

// PanicError is an internal compiler error: a pipeline phase panicked
// and Compile converted the panic into a structured diagnostic instead
// of crashing the process. The zero-indexed stack is captured at the
// panic site.
type PanicError struct {
	File  string // source file being compiled
	Phase string // pipeline phase that panicked (lex, parse, lower, opt, partition)
	Value any    // the recovered panic value
	Stack []byte // stack trace captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: internal compiler error in %s: %v", e.File, e.Phase, e.Value)
}

// guard runs one pipeline phase, converting a panic into a *PanicError.
// Malformed input must surface as a diagnostic, never a crash: the
// front end is fed machine-generated and fuzzed sources.
func guard(file, phase string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{File: file, Phase: phase, Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}

// Compile runs the front end, semantic lowering, NIR optimization, and
// CM2/NIR partitioning. When cfg.Obs is set, each phase emits one span
// (lex, parse, lower, opt/<pass>..., partition with nested pe-codegen
// spans) and its statistics as counters. A panic inside any phase is
// recovered into a *PanicError diagnostic naming the file and phase.
func Compile(filename, src string, cfg Config) (*Compilation, error) {
	return CompileCtx(context.Background(), filename, src, cfg)
}

// CompileCtx is Compile under a context, checked between pipeline
// phases: a canceled context or an expired deadline aborts the
// compilation with an error wrapping ErrCanceled.
func CompileCtx(ctx context.Context, filename, src string, cfg Config) (*Compilation, error) {
	if cfg.Machine == nil {
		cfg.Machine = cm2.Default()
	}
	rec := cfg.Obs
	phaseCtx := func(phase string) error {
		if ctx.Err() != nil {
			return fmt.Errorf("%s: compile %s: %w", filename, phase, rt.Canceled(ctx))
		}
		return nil
	}

	var toks []lexer.Token
	var rep source.Reporter
	if err := phaseCtx("lex"); err != nil {
		return nil, err
	}
	if err := guard(filename, "lex", func() error {
		span := obs.Start(rec, "lex")
		toks = lexer.Tokens(filename, src, &rep)
		span.End()
		obs.Add(rec, "lex/tokens", float64(len(toks)))
		if rep.HasErrors() {
			return rep.Err()
		}
		return nil
	}); err != nil {
		return nil, err
	}

	var tree *ast.Program
	if err := phaseCtx("parse"); err != nil {
		return nil, err
	}
	if err := guard(filename, "parse", func() error {
		span := obs.Start(rec, "parse")
		defer span.End()
		var err error
		tree, err = parser.ParseTokens(toks, &rep)
		return err
	}); err != nil {
		return nil, err
	}

	var mod *lower.Module
	if err := phaseCtx("lower"); err != nil {
		return nil, err
	}
	if err := guard(filename, "lower", func() error {
		span := obs.Start(rec, "lower")
		defer span.End()
		var err error
		mod, err = lower.Lower(tree)
		return err
	}); err != nil {
		return nil, err
	}

	// Distribution plane: validate !HPF$ directives and stamp per-array
	// distributions onto the symbol table. Skipped entirely for
	// directive-free programs with no overrides, so their phase lists
	// and artifacts are bit-identical to the pre-directive compiler.
	if len(tree.Directives) > 0 || len(cfg.Distribute) > 0 {
		if err := phaseCtx("hpf"); err != nil {
			return nil, err
		}
		if err := guard(filename, "hpf", func() error {
			span := obs.Start(rec, "hpf")
			defer span.End()
			return fe.ApplyDirectives(tree, mod.Syms, cfg.Distribute)
		}); err != nil {
			return nil, err
		}
	}

	var omod *lower.Module
	var ostats opt.Stats
	if err := phaseCtx("opt"); err != nil {
		return nil, err
	}
	if err := guard(filename, "opt", func() error {
		omod, ostats = opt.OptimizeObs(mod, cfg.Opt, rec)
		return nil
	}); err != nil {
		return nil, err
	}

	var prog *fe.Program
	var pstats partition.Stats
	if err := phaseCtx("partition"); err != nil {
		return nil, err
	}
	if err := guard(filename, "partition", func() error {
		span := obs.Start(rec, "partition")
		defer span.End()
		var err error
		prog, pstats, err = partition.CompileObs(omod, cfg.PE, rec)
		return err
	}); err != nil {
		return nil, err
	}
	return &Compilation{
		AST:       tree,
		Module:    mod,
		Optimized: omod,
		OptStats:  ostats,
		Program:   prog,
		PartStats: pstats,
		Machine:   cfg.Machine,
		Obs:       rec,
	}, nil
}

// Run executes the compiled program on the simulated CM/2 under ctx,
// reporting an "exec" span plus the cycle-attribution counters to the
// compilation's recorder. Cancellation and deadline expiry are checked
// at host op and loop-iteration boundaries and surface as an error
// wrapping ErrCanceled. ctl optionally attaches an execution control
// plane — deterministic fault injection, periodic checkpoints, resume
// from a snapshot (see cm2.Control); nil is the plain run. A
// Compilation is immutable once built, so concurrent Run calls on one
// Compilation are safe; each run builds its own store.
func (c *Compilation) Run(ctx context.Context, ctl *cm2.Control) (*cm2.Result, error) {
	span := obs.Start(c.Obs, "exec")
	defer span.End()
	return c.Machine.RunCtx(ctx, c.Program, nil, c.Obs, ctl)
}

// Interpret runs a program under the reference interpreter (the oracle):
// no compilation, no machine model.
func Interpret(filename, src string) (*interp.Machine, error) {
	tree, err := parser.Parse(filename, src)
	if err != nil {
		return nil, err
	}
	return interp.Run(tree)
}
