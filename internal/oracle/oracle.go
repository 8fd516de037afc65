// Package oracle implements differential execution verification: one
// program is run on the reference interpreter and on every simulated
// machine of the target table (driver.Targets: CM/2 and CM-5), and the
// final stores are cross-checked value-for-value. The interpreter
// evaluates the AST directly — no lowering, no partitioning, no machine
// model — so any disagreement localizes a bug to the compiled pipeline
// (or, less often, to the interpreter itself). On top of the verifier, soak.go
// builds a chaos harness asserting the fault-invariance property:
// injected faults may change cycle totals but never numerical results.
//
// # Tolerance model
//
// Integer and logical values must match exactly. Real values must agree
// within Options.ULPs units in the last place (default DefaultULPs):
// the interpreter evaluates expressions as written while the compiled
// pipeline may reassociate (e.g. FMADD contraction, reduction-tree
// order), so bit-exactness between the two is not a sound requirement —
// but a small ULP envelope is. The machine backends share one PEAC
// executor, so every machine pair is checked bit-exact (0 ULPs), as is
// every faulted-vs-baseline pair in the soak harness. PRINT output is
// compared byte-for-byte between the machine backends and against the
// interpreter (both sides format through the same %g rules).
package oracle

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"f90y"
	"f90y/internal/ast"
	"f90y/internal/cm2"
	"f90y/internal/driver"
	"f90y/internal/interp"
	"f90y/internal/nir"
	"f90y/internal/rt"
)

// DefaultULPs is the real-valued tolerance between the interpreter and
// a compiled backend when Options.ULPs is zero. Reassociation changes
// results by at most a few ULPs for the workloads in this repo; 8
// leaves headroom without masking real bugs (a wrong shift direction or
// a dropped mask diverges by many orders of magnitude, not ULPs).
const DefaultULPs = 8

// ErrDivergence is the sentinel wrapped by Verify when the backends
// disagree; the error's Report carries the first divergence.
var ErrDivergence = errors.New("oracle: backends diverge")

// Options configures one differential verification.
type Options struct {
	// ULPs is the interpreter-vs-backend tolerance for real values;
	// zero means DefaultULPs. Machine-vs-machine is always 0.
	ULPs uint64
	// Config is the compile configuration of the run being verified —
	// optimization levels and distribution overrides — so the oracle
	// checks the program that ran, not the source as written; nil means
	// f90y.DefaultConfig(). Its recorder is not used.
	Config *f90y.Config
	// Targets are the machines run and cross-checked; nil means the
	// table, driver.Targets.
	Targets []*cm2.Target
	// MaxCycles bounds each backend run (rt.ErrBudget on overrun);
	// zero disables the watchdog.
	MaxCycles float64
	// ExecWorkers forces each machine backend's executor width (see
	// cm2.Control.ExecWorkers; zero is serial). Because the sharded
	// executor is bit-exact, the machine-pair 0-ULP check and the
	// interpreter tolerance are unchanged.
	ExecWorkers int
	// InterpSteps bounds the interpreter (interp.ErrSteps on overrun);
	// zero means the interpreter's default backstop.
	InterpSteps int
	// MaxElems refuses programs whose declared arrays total more
	// elements, before running anything; zero disables the check.
	// Fuzzers use this to skip pathological declarations.
	MaxElems int
}

// Divergence locates the first disagreement between two backends.
type Divergence struct {
	Var    string `json:"var"`              // variable name, or "output"
	Index  int    `json:"index"`            // flat element offset; -1 for scalars
	Coords []int  `json:"coords,omitempty"` // declared-space coordinates
	A      string `json:"a"`                // first backend of the pair
	B      string `json:"b"`                // second backend of the pair
	AVal   string `json:"aval"`
	BVal   string `json:"bval"`
	ULPs   uint64 `json:"ulps"` // distance for real pairs; 0 otherwise
	Kind   string `json:"kind"` // real, int, logical, output
}

func (d *Divergence) String() string {
	loc := d.Var
	if len(d.Coords) > 0 {
		loc = fmt.Sprintf("%s(%s)", d.Var, joinInts(d.Coords))
	}
	extra := ""
	if d.Kind == "real" {
		extra = fmt.Sprintf(" (%d ulps)", d.ULPs)
	}
	return fmt.Sprintf("%s: %s=%s vs %s=%s%s", loc, d.A, d.AVal, d.B, d.BVal, extra)
}

// Report summarizes one verification.
type Report struct {
	File       string      `json:"file"`
	Backends   []string    `json:"backends"` // "interp", then each machine's name
	Vars       int         `json:"vars"`     // variables cross-checked
	Elems      int         `json:"elems"`    // total values compared per backend pair
	Divergence *Divergence `json:"divergence,omitempty"`
	// Runs are the machine runs that were compared, in Backends order
	// (Runs[i] ran on Backends[i+1]).
	Runs []*cm2.Result `json:"-"`
}

// Verify compiles the program once and runs it on the interpreter and
// on every target, then cross-checks the results: interpreter against
// each machine at the ULP tolerance, each machine pair bit-exact. A nil
// error means full agreement; a divergence returns the report and an
// error wrapping ErrDivergence; any compile or run failure is returned
// as-is.
func Verify(file, src string, o Options) (*Report, error) {
	cfg := f90y.DefaultConfig()
	if o.Config != nil {
		cfg = *o.Config
		cfg.Obs = nil
	}
	targets := o.Targets
	if targets == nil {
		targets = driver.Targets
	}
	comp, err := f90y.Compile(file, src, cfg)
	if err != nil {
		return nil, err
	}
	if o.MaxElems > 0 {
		total := 0
		for _, sym := range comp.Program.Syms.All() {
			if sym.Shape != nil && !sym.Param {
				total += rt.NewArray(sym.Kind, sym.Shape).Size()
			}
		}
		if total > o.MaxElems {
			return nil, fmt.Errorf("oracle: %s: %d declared elements exceed the %d-element limit", file, total, o.MaxElems)
		}
	}

	im, err := interp.RunSteps(comp.AST, o.InterpSteps)
	if err != nil {
		return nil, fmt.Errorf("oracle: interp: %w", err)
	}
	ctl := &cm2.Control{MaxCycles: o.MaxCycles, ExecWorkers: o.ExecWorkers}
	rep := &Report{File: file, Backends: []string{"interp"}}
	states := []*state{interpState(comp, im)}
	for _, t := range targets {
		res, err := t.Run(context.Background(), comp.Program, nil, nil, ctl)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", t.Name, err)
		}
		rep.Backends = append(rep.Backends, t.Name)
		rep.Runs = append(rep.Runs, res)
		states = append(states, storeState(t.Name, comp, res.Store, res.Output))
	}

	skip := loopVars(comp.AST)
	ulps := o.ULPs
	if ulps == 0 {
		ulps = DefaultULPs
	}
	// Every pair: the interpreter (states[0]) against each machine within
	// the tolerance, then machine against machine — one shared PEAC
	// executor, so bit-exact.
	for i, a := range states {
		tol := uint64(0)
		if i == 0 {
			tol = ulps
		}
		for _, b := range states[i+1:] {
			d, vars, elems := compare(a, b, tol, skip)
			if vars > rep.Vars {
				rep.Vars = vars
			}
			rep.Elems += elems
			if d != nil {
				rep.Divergence = d
				return rep, fmt.Errorf("oracle: %s: %s: %w", file, d, ErrDivergence)
			}
		}
	}
	return rep, nil
}

// state is one backend's observable final state, normalized for
// comparison: every non-temporary array flattened to column-major
// float64 lanes plus the value kind, every scalar, and PRINT output.
type state struct {
	name    string
	order   []string // declaration order, arrays then scalars
	arrays  map[string][]float64
	exts    map[string][]int  // extents per array, for coordinate reports
	los     map[string][]int  // declared lower bounds per array
	kinds   map[string]string // real, int, logical
	scalars map[string]float64
	out     []string
}

func newState(name string, out []string) *state {
	return &state{
		name: name, out: out,
		arrays: map[string][]float64{}, exts: map[string][]int{}, los: map[string][]int{},
		kinds: map[string]string{}, scalars: map[string]float64{},
	}
}

func kindName(k nir.ScalarKind) string {
	switch k {
	case nir.Integer32:
		return "int"
	case nir.Logical32:
		return "logical"
	}
	return "real"
}

// storeState normalizes a machine backend's rt.Store. Compiler
// temporaries (tmp0, tmp1, ... from the Fig. 12 lowering) exist only in
// the compiled pipeline and are skipped.
func storeState(name string, comp *f90y.Compilation, st *rt.Store, out []string) *state {
	s := newState(name, out)
	for _, sym := range comp.Program.Syms.All() {
		if sym.Param || sym.Temp {
			continue
		}
		s.kinds[sym.Name] = kindName(sym.Kind)
		if sym.Shape != nil {
			if a := st.Arrays[sym.Name]; a != nil {
				s.order = append(s.order, sym.Name)
				s.arrays[sym.Name] = a.Data
				s.exts[sym.Name], s.los[sym.Name] = a.Ext, a.Lo
			}
			continue
		}
		s.order = append(s.order, sym.Name)
		s.scalars[sym.Name] = st.Scalars[sym.Name]
	}
	return s
}

// interpState normalizes the reference interpreter's machine, reading
// the same symbol list so both sides compare identical variable sets.
func interpState(comp *f90y.Compilation, m *interp.Machine) *state {
	s := newState("interp", m.Output())
	for _, sym := range comp.Program.Syms.All() {
		if sym.Param || sym.Temp {
			continue
		}
		s.kinds[sym.Name] = kindName(sym.Kind)
		if sym.Shape != nil {
			a := m.Array(sym.Name)
			if a == nil {
				continue
			}
			lanes := make([]float64, a.Size())
			for i := range lanes {
				switch {
				case a.I != nil:
					lanes[i] = float64(a.I[i])
				case a.B != nil:
					if a.B[i] {
						lanes[i] = 1
					}
				default:
					lanes[i] = a.F[i]
				}
			}
			s.order = append(s.order, sym.Name)
			s.arrays[sym.Name] = lanes
			s.exts[sym.Name], s.los[sym.Name] = a.Ext, a.Lo
			continue
		}
		v, ok := m.Scalar(sym.Name)
		if !ok {
			continue
		}
		s.order = append(s.order, sym.Name)
		if v.Kind == interp.KLogical {
			if v.B {
				s.scalars[sym.Name] = 1
			}
		} else {
			s.scalars[sym.Name] = v.AsFloat()
		}
	}
	return s
}

// compare cross-checks two states: variables in declaration order (a's
// order; only variables present on both sides are compared), then PRINT
// output line-by-line. skip names scalars excluded from comparison —
// DO-loop and FORALL index variables, whose final values are
// deliberately backend-specific (F90 leaves the compiled index in loop
// state; the interpreter materializes the final+step value).
func compare(a, b *state, tol uint64, skip map[string]bool) (*Divergence, int, int) {
	vars, elems := 0, 0
	for _, name := range a.order {
		kind := a.kinds[name]
		if av, ok := a.arrays[name]; ok {
			bv, ok := b.arrays[name]
			if !ok || len(av) != len(bv) {
				continue
			}
			vars++
			for i := range av {
				elems++
				if d, n := valDiff(kind, av[i], bv[i], tol); d {
					return &Divergence{
						Var: name, Index: i, Coords: coordsOf(a.exts[name], a.los[name], i),
						A: a.name, B: b.name,
						AVal: fmtVal(kind, av[i]), BVal: fmtVal(kind, bv[i]),
						ULPs: n, Kind: kind,
					}, vars, elems
				}
			}
			continue
		}
		if skip[name] {
			continue
		}
		av, aok := a.scalars[name]
		bv, bok := b.scalars[name]
		if !aok || !bok {
			continue
		}
		vars++
		elems++
		if d, n := valDiff(kind, av, bv, tol); d {
			return &Divergence{
				Var: name, Index: -1, A: a.name, B: b.name,
				AVal: fmtVal(kind, av), BVal: fmtVal(kind, bv),
				ULPs: n, Kind: kind,
			}, vars, elems
		}
	}
	for i := 0; i < len(a.out) || i < len(b.out); i++ {
		elems++
		al, bl := "<no line>", "<no line>"
		if i < len(a.out) {
			al = a.out[i]
		}
		if i < len(b.out) {
			bl = b.out[i]
		}
		if al != bl {
			return &Divergence{
				Var: "output", Index: i, A: a.name, B: b.name,
				AVal: al, BVal: bl, Kind: "output",
			}, vars, elems
		}
	}
	return nil, vars, elems
}

// valDiff reports whether two values of one kind diverge under the
// tolerance, and the ULP distance for real pairs. Integers and logicals
// must match exactly regardless of tol.
func valDiff(kind string, a, b float64, tol uint64) (bool, uint64) {
	if kind != "real" {
		return a != b, 0
	}
	n := ULPDist(a, b)
	return n > tol, n
}

func fmtVal(kind string, v float64) string {
	switch kind {
	case "int":
		return strconv.FormatInt(int64(v), 10)
	case "logical":
		if v != 0 {
			return "T"
		}
		return "F"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ULPDist is the distance between two float64s in units in the last
// place, computed on the ordered-integer mapping of IEEE-754 bit
// patterns (negative floats map below positive so the distance is
// monotone across zero). Two NaNs are distance 0; NaN against a number
// is MaxUint64; +0 and -0 are distance 0 by the same mapping symmetry
// (both map adjacent to the origin: the distance is 1... so special-case
// equality first).
func ULPDist(a, b float64) uint64 {
	if a == b {
		return 0 // covers +0 vs -0
	}
	an, bn := math.IsNaN(a), math.IsNaN(b)
	if an || bn {
		if an && bn {
			return 0
		}
		return math.MaxUint64
	}
	ia := orderedBits(a)
	ib := orderedBits(b)
	if ia < ib {
		ia, ib = ib, ia
	}
	return uint64(ia) - uint64(ib)
}

// orderedBits maps a float64 to an int64 such that the float ordering
// matches the integer ordering (lexicographic IEEE-754 trick).
func orderedBits(f float64) int64 {
	b := int64(math.Float64bits(f))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

// loopVars collects every DO-loop and FORALL index variable in the
// program; their final scalar values are excluded from comparison (the
// interpreter applies the F90 final+step rule, the compiled pipeline
// keeps the index in host-VM loop state and never writes the scalar).
func loopVars(p *ast.Program) map[string]bool {
	vars := map[string]bool{}
	var walk func(stmts []ast.Stmt)
	walk = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ast.DoLoop:
				vars[s.Var] = true
				walk(s.Body)
			case *ast.DoWhile:
				walk(s.Body)
			case *ast.If:
				walk(s.Then)
				walk(s.Else)
			case *ast.Forall:
				for _, ix := range s.Indexes {
					vars[ix.Var] = true
				}
			}
		}
	}
	walk(p.Body)
	return vars
}

func joinInts(xs []int) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ","
		}
		out += strconv.Itoa(x)
	}
	return out
}

// coordsOf converts a column-major storage offset to declared-space
// coordinates.
func coordsOf(ext, lo []int, off int) []int {
	if len(ext) == 0 {
		return nil
	}
	coords := make([]int, len(ext))
	for d := range ext {
		coords[d] = lo[d] + off%ext[d]
		off /= ext[d]
	}
	return coords
}

// sortedNames returns map keys sorted, for deterministic iteration.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
