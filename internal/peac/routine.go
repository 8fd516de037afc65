package peac

import (
	"fmt"
	"strings"
	"sync/atomic"

	"f90y/internal/shape"
	"f90y/internal/source"
)

// ParamKind classifies routine parameters pushed over the IFIFO (§5.2:
// "Receive pointers to the local subgrids ... Receive a pointer to the
// local coordinate 1 subgrid ... Receive the virtual subgrid size V").
type ParamKind int

// Parameter kinds.
const (
	// ArrayParam is a pointer to the local subgrid of a CM array; it is
	// bound to a pointer register.
	ArrayParam ParamKind = iota
	// CoordParam is a pointer to a local coordinate subgrid along one
	// dimension; also bound to a pointer register.
	CoordParam
	// ScalarParam is a front-end scalar broadcast into a scalar register.
	ScalarParam
	// ConstParam is an immediate constant loaded into a scalar register
	// before the loop.
	ConstParam
)

// Param is one routine parameter.
type Param struct {
	Kind  ParamKind
	Name  string  // array or scalar identifier (ArrayParam, ScalarParam)
	Dim   int     // coordinate dimension, 1-based (CoordParam)
	Value float64 // immediate (ConstParam)
	Reg   int     // assigned pointer or scalar register number
	IsInt bool    // integer-kind storage
}

func (p Param) String() string {
	switch p.Kind {
	case ArrayParam:
		return fmt.Sprintf("aP%d <- subgrid '%s'", p.Reg, p.Name)
	case CoordParam:
		return fmt.Sprintf("aP%d <- coord subgrid dim %d", p.Reg, p.Dim)
	case ScalarParam:
		return fmt.Sprintf("aS%d <- scalar '%s'", p.Reg, p.Name)
	default:
		return fmt.Sprintf("aS%d <- imm %g", p.Reg, p.Value)
	}
}

// Routine is one PEAC node procedure: a single virtual-subgrid loop whose
// body is Body, preceded by parameter reception. Stores write back to the
// arrays named in Params. Pos is the source statement the routine's first
// store descends from — the anchor for costs with no finer provenance
// (loop control, per-call overheads, degrade charges).
type Routine struct {
	Name       string
	Params     []Param
	Body       []Instr
	SpillSlots int // spill area words per PE
	Pos        source.Pos
	// Dist is the data distribution the routine's arrays share (from
	// !HPF$ directives); the zero value is the default blockwise layout.
	// The machine models use it to lay the iteration space out over PEs.
	Dist shape.Distribution

	// translated is the executor's set-once memo: nil until the routine's
	// first dispatch, then its translated form (cm2/jit.go owns the
	// value). An atomic box keeps Routine free of noCopy state
	// (atomic.Pointer and sync.Once carry it, atomic.Value does not, so
	// go vet copylocks stays clean) and is invisible to gob, so
	// disk-cached artifacts are unaffected.
	translated atomic.Value
}

// Translated returns the executor's memo for the routine: nil before
// anything was stored. It is process state, shared by every run of the
// routine.
func (r *Routine) Translated() any { return r.translated.Load() }

// SetTranslated stores the memo; every stored value must share one
// concrete type. Concurrent first dispatches of one routine may each
// translate and store — the last store wins, so every value stored for
// one routine must be equivalent.
func (r *Routine) SetTranslated(v any) { r.translated.Store(v) }

// StoredPtrs reports, per pointer register a parameter binds, whether
// the body stores through it: whether a dispatch writes the array bound
// there. One walk of the parameters and the body.
func (r *Routine) StoredPtrs() []bool {
	n := 0
	for _, p := range r.Params {
		if p.Kind == ArrayParam || p.Kind == CoordParam {
			n = max(n, p.Reg+1)
		}
	}
	stored := make([]bool, n)
	for k := range r.Body {
		if in := &r.Body[k]; in.Op.Info().Form == FormStore && in.D.N < n {
			stored[in.D.N] = true
		}
	}
	return stored
}

// Format renders the routine in the Fig. 12 assembly style: the loop
// label, the body with each dual-issue group on one line, and the
// closing jnz. A group is a non-paired instruction followed by every
// consecutive Paired instruction — the same grouping the cost model
// charges — so a chain of Paired instructions stays on a single line. A
// body-leading Paired instruction has no partner; it renders with its
// orphaned pair marker (a leading ", ") visible instead of silently
// appearing unpaired.
func (r *Routine) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s_\n", r.Name)
	line := ""
	open := false // a line is open (possibly the empty leading slot)
	flush := func() {
		if open {
			b.WriteString("    " + line + "\n")
			line = ""
			open = false
		}
	}
	for _, in := range r.Body {
		if in.Op == JNZ {
			continue // printed at the end
		}
		if in.Paired && open {
			line += ", " + in.String()
			continue
		}
		flush()
		open = true
		if in.Paired {
			line = ", " + in.String()
			continue
		}
		line = in.String()
	}
	flush()
	fmt.Fprintf(&b, "    jnz ac2 %s_\n", r.Name)
	return b.String()
}

// InstrCount is the number of instructions in the loop body, counting a
// dual-issued pair as two (the jnz is excluded, matching Fig. 12's body
// listings).
func (r *Routine) InstrCount() int {
	n := 0
	for _, in := range r.Body {
		if in.Op != JNZ {
			n++
		}
	}
	return n
}

// IssueSlots is the number of issue slots the body occupies: dual-issued
// pairs count once.
func (r *Routine) IssueSlots() int {
	n := 0
	for _, in := range r.Body {
		if in.Op == JNZ || in.Paired {
			continue
		}
		n++
	}
	return n
}

// FlopsPerIteration is the floating-point work of one loop iteration
// (VectorWidth elements).
func (r *Routine) FlopsPerIteration() int {
	f := 0
	for _, in := range r.Body {
		f += in.Flops()
	}
	return f
}

// CostModel is the per-instruction cycle model of the slicewise PE. The
// constants are calibrated from §5.2's stated facts: a vector operation
// covers four elements; "a single vector spill-restore pair costs 18
// cycles — roughly equivalent to three single-precision floating point
// vector operations" (so one vector op = 6 cycles and a spill or restore
// is 9); divides and transcendentals are microcoded and several times
// slower.
type CostModel struct {
	VectorOp  int // load, store, add/sub/mul, compare, select, mask ops
	Divide    int
	Sqrt      int
	Transcend int
	Spill     int // one spill store or one restore (pair = 2*Spill = 18)
	LoopJnz   int
}

// DefaultCost is the calibrated CM/2 slicewise cost model.
var DefaultCost = CostModel{
	VectorOp:  6,
	Divide:    36,
	Sqrt:      42,
	Transcend: 60,
	Spill:     9,
	LoopJnz:   1,
}

// InstrCycles is the issue cost of one instruction under the model: the
// cost of its class, nothing for an op the table marks free.
func (c CostModel) InstrCycles(i Instr) int {
	info := i.Op.Info()
	if info.Free {
		return 0
	}
	return [NumCycleClasses]int{
		ClassVector: c.VectorOp, ClassDivide: c.Divide, ClassSqrt: c.Sqrt, ClassTranscend: c.Transcend,
		ClassMemory: c.VectorOp, ClassSpill: c.Spill, ClassLoop: c.LoopJnz,
	}[info.Class]
}
