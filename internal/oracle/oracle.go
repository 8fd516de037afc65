// Package oracle implements differential execution verification: one
// program is run on the reference interpreter and on every simulated
// machine of the target table (driver.Targets: CM/2 and CM-5), and each
// machine's final store is compared with the interpreter's. The
// interpreter evaluates the AST directly — no lowering, no partitioning,
// no machine model — so any disagreement localizes a bug to the compiled
// pipeline (or, less often, to the interpreter itself). On top of the
// verifier, soak.go builds a chaos harness asserting the
// fault-invariance property: injected faults may change cycle totals but
// never numerical results.
//
// # Exactness
//
// Compilation preserves the program's meaning to the bit. Every value —
// real, integer or logical — must be equal as a float64 on both sides,
// or NaN on both, and PRINT output must match byte for byte (both sides
// format through the same %g rules). There is no tolerance: the compiled
// pipeline contracts no multiply-add and reorders no reduction, and a
// legitimate reassociation is fixed by the evaluation order on one side,
// never by an envelope. Equality is transitive, so each machine is
// compared with the interpreter only. The soak harness compares every
// faulted run with its baseline by the same rule.
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
	"f90y/internal/shape"
)

// ErrDivergence is the sentinel wrapped by Verify when the backends
// disagree; the error's Report carries the first divergence.
var ErrDivergence = errors.New("oracle: backends diverge")

// Options configures one differential verification.
type Options struct {
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
	// cm2.Control.ExecWorkers; zero is serial). The sharded executor is
	// bit-exact, so the comparison is the same at every width.
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
	AVal   string `json:"aval"`             // shortest round-trip value, or what "missing" found
	BVal   string `json:"bval"`
	ULPs   uint64 `json:"ulps"` // distance for real pairs (ULPDist); 0 otherwise
	// Kind is real, int or logical for a differing value, output for a
	// differing PRINT line, and missing for a variable one side lacks or
	// holds at another length.
	Kind string `json:"kind"`
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
	Elems      int         `json:"elems"`    // values compared, summed over the machines
	Divergence *Divergence `json:"divergence,omitempty"`
	// Runs are the machine runs that were compared, in Backends order
	// (Runs[i] ran on Backends[i+1]).
	Runs []*cm2.Result `json:"-"`
}

// Verify compiles the program once and runs it on the interpreter and
// on every target, comparing each machine's results with the
// interpreter's bit for bit. A nil error means full agreement; a
// divergence returns the report and an error wrapping ErrDivergence;
// any compile or run failure is returned as-is.
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
				total += shape.Size(sym.Shape)
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
	ref, skip := interpState(comp, im), loopVars(comp.AST)
	ctl := &cm2.Control{MaxCycles: o.MaxCycles, ExecWorkers: o.ExecWorkers}
	rep := &Report{File: file, Backends: []string{"interp"}}
	for _, t := range targets {
		res, err := t.Run(context.Background(), comp.Program, nil, nil, ctl)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", t.Name, err)
		}
		rep.Backends = append(rep.Backends, t.Name)
		rep.Runs = append(rep.Runs, res)
		d, vars, elems := compare(ref, storeState(t.Name, comp, res.Store, res.Output), skip)
		rep.Vars = max(rep.Vars, vars)
		rep.Elems += elems
		if d != nil {
			rep.Divergence = d
			return rep, fmt.Errorf("oracle: %s: %s: %w", file, d, ErrDivergence)
		}
	}
	return rep, nil
}

// state is one backend's observable final state, normalized for
// comparison: every variable as column-major float64 lanes (a scalar is
// one lane and has no extents), and PRINT output.
type state struct {
	name  string
	order []string             // every variable the backend should hold
	vals  map[string][]float64 // a name in order but not here is missing
	exts  map[string][]int     // extents per array, for coordinate reports
	los   map[string][]int     // declared lower bounds per array
	kinds map[string]string    // real, int, logical
	out   []string
}

func newState(name string, out []string) *state {
	return &state{
		name: name, out: out, vals: map[string][]float64{},
		exts: map[string][]int{}, los: map[string][]int{}, kinds: map[string]string{},
	}
}

// declare adds a variable the backend should hold.
func (s *state) declare(name string, kind nir.ScalarKind) {
	s.order = append(s.order, name)
	s.kinds[name] = kindName(kind)
}

// setArray records an array's lanes and geometry.
func (s *state) setArray(name string, lanes []float64, ext, lo []int) {
	s.vals[name], s.exts[name], s.los[name] = lanes, ext, lo
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
		s.declare(sym.Name, sym.Kind)
		if sym.Shape != nil {
			if a := st.Arrays[sym.Name]; a != nil {
				s.setArray(sym.Name, a.Data, a.Ext, a.Lo)
			}
		} else if v, ok := st.Scalars[sym.Name]; ok {
			s.vals[sym.Name] = []float64{v}
		}
	}
	return s
}

// interpState normalizes the reference interpreter's machine, reading
// the same symbol list so both sides declare identical variable sets.
func interpState(comp *f90y.Compilation, m *interp.Machine) *state {
	s := newState("interp", m.Output())
	for _, sym := range comp.Program.Syms.All() {
		if sym.Param || sym.Temp {
			continue
		}
		s.declare(sym.Name, sym.Kind)
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
			s.setArray(sym.Name, lanes, a.Ext, a.Lo)
			continue
		}
		if v, ok := m.Scalar(sym.Name); ok {
			f := v.AsFloat()
			if v.Kind == interp.KLogical {
				f = 0
				if v.B {
					f = 1
				}
			}
			s.vals[sym.Name] = []float64{f}
		}
	}
	return s
}

// compare checks b against a bit for bit: every variable in a's
// declaration order, then any only b declares, then PRINT output line by
// line. A variable one side lacks, or holds at another length, is a
// divergence of kind "missing". skip names scalars excluded from
// comparison — DO-loop and FORALL index variables, whose final values
// are deliberately backend-specific (F90 leaves the compiled index in
// loop state; the interpreter materializes the final+step value).
func compare(a, b *state, skip map[string]bool) (*Divergence, int, int) {
	vars, elems := 0, 0
	missing := func(name string) *Divergence {
		return &Divergence{Var: name, Index: -1, A: a.name, B: b.name,
			AVal: a.holds(name), BVal: b.holds(name), Kind: "missing"}
	}
	for _, name := range a.order {
		if skip[name] {
			continue
		}
		av, aok := a.vals[name]
		bv, bok := b.vals[name]
		if !aok || !bok || len(av) != len(bv) {
			return missing(name), vars, elems
		}
		vars++
		kind := a.kinds[name]
		for i := range av {
			elems++
			if valDiff(av[i], bv[i]) {
				d := &Divergence{Var: name, Index: -1, A: a.name, B: b.name,
					AVal: fmtVal(kind, av[i]), BVal: fmtVal(kind, bv[i]), Kind: kind}
				if ext, ok := a.exts[name]; ok {
					d.Index, d.Coords = i, coordsOf(ext, a.los[name], i)
				}
				if kind == "real" {
					d.ULPs = ULPDist(av[i], bv[i])
				}
				return d, vars, elems
			}
		}
	}
	for _, name := range b.order {
		if _, ok := a.kinds[name]; !ok && !skip[name] {
			return missing(name), vars, elems
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

// holds says how much of a variable the state has, for a "missing"
// divergence.
func (s *state) holds(name string) string {
	v, ok := s.vals[name]
	if !ok {
		return "absent"
	}
	return strconv.Itoa(len(v)) + " values"
}

// valDiff reports whether two values diverge under the one agreement
// rule: they agree when equal as float64s (so +0 and -0 agree) or both
// NaN, and under no tolerance otherwise.
func valDiff(a, b float64) bool {
	return a != b && !(math.IsNaN(a) && math.IsNaN(b))
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
// place, on the ordered-integer mapping of IEEE-754 bit patterns
// (negative floats map below positive, so the distance is monotone
// across zero). Equal values are distance 0, +0 and -0 included, as are
// two NaNs; a NaN against a number is MaxUint64. It only reports how far
// apart a divergence is: agreement is valDiff's exact rule.
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
