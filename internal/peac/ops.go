package peac

// Form is an op's operand-fetch rule: which operand positions it reads
// as lane vectors and what it writes. Everything that walks a routine
// body — the cost model, the printer, the executor's decoder, its
// planner and the reference evaluator — dispatches on the form, never on
// the opcode.
type Form uint8

// Operand-fetch rules.
const (
	FormNone    Form = iota // nop, jnz: nothing executes
	FormLoad                // register D <- the pointer stream A names
	FormStore               // the pointer stream D names <- A, under the optional mask C
	FormSpill               // spill slot D <- A
	FormRestore             // register D <- spill slot A
	FormArith               // register D <- Lanes(A, B, C); all three positions resolve
)

// LaneFunc is an op's lane loop: dst[i] = f(x[i], y[i], z[i]) over
// len(dst) lanes, ascending, touching only index i per step. A loop
// ignores the sources its op does not have.
type LaneFunc func(dst, x, y, z []float64)

// LaneErrFunc is the lane loop of an op that can fault on its data (the
// IntOp divide and mod): it stops at the first faulting lane.
type LaneErrFunc func(dst, x, y []float64) error

// OpInfo is the one definition of a PEAC op.
type OpInfo struct {
	Name  string     // assembly mnemonic
	Class CycleClass // cycle-attribution class, which is also its cost
	Form  Form
	Srcs  int  // sources an arithmetic op prints (String's layout)
	Free  bool // holds an issue slot at no cost (nop)
	// Trap: the op can produce a NaN or infinity from finite operands,
	// so the numeric-exception plane (rt.Numeric) scans its destination.
	// Every other op only propagates lanes bit for bit.
	Trap bool
	// Flops per element. Integer-tagged arithmetic (Instr.IntOp) counts
	// none, except the microcoded transcendentals, which are float
	// routines whatever their operand's tag.
	Flops int
	// Lanes is the op's lane loop: nil for the forms that execute nothing
	// or store, the straight copy for load, spill and restore. FCMPV's is
	// chosen by predicate and an IntOp divide or mod runs IntLanes instead
	// (see Instr.Lanes).
	Lanes    LaneFunc
	IntLanes LaneErrFunc
}

// ops is the op table, total over NOP..JNZ.
var ops = [JNZ + 1]OpInfo{
	NOP:    {Name: "nop", Class: ClassVector, Free: true},
	FLODV:  {Name: "flodv", Class: ClassMemory, Form: FormLoad, Lanes: lanesMov},
	FSTRV:  {Name: "fstrv", Class: ClassMemory, Form: FormStore},
	FADDV:  {Name: "faddv", Class: ClassVector, Form: FormArith, Srcs: 2, Trap: true, Flops: 1, Lanes: Vector(arithBodies[bodyAdd], lanesAdd)},
	FSUBV:  {Name: "fsubv", Class: ClassVector, Form: FormArith, Srcs: 2, Trap: true, Flops: 1, Lanes: Vector(arithBodies[bodySub], lanesSub)},
	FMULV:  {Name: "fmulv", Class: ClassVector, Form: FormArith, Srcs: 2, Trap: true, Flops: 1, Lanes: Vector(arithBodies[bodyMul], lanesMul)},
	FDIVV:  {Name: "fdivv", Class: ClassDivide, Form: FormArith, Srcs: 2, Trap: true, Flops: 1, Lanes: Vector(arithBodies[bodyDiv], lanesDiv), IntLanes: lanesDivInt},
	FMODV:  {Name: "fmodv", Class: ClassDivide, Form: FormArith, Srcs: 2, Trap: true, Flops: 1, Lanes: lanesMod, IntLanes: lanesModInt},
	FMINV:  {Name: "fminv", Class: ClassVector, Form: FormArith, Srcs: 2, Flops: 1, Lanes: lanesMin},
	FMAXV:  {Name: "fmaxv", Class: ClassVector, Form: FormArith, Srcs: 2, Flops: 1, Lanes: lanesMax},
	FMADDV: {Name: "fmaddv", Class: ClassVector, Form: FormArith, Srcs: 3, Trap: true, Flops: 2, Lanes: Vector(pairBodies[bodyMul][bodyAdd][pairLeft], lanesFmadd)},
	FMSUBV: {Name: "fmsubv", Class: ClassVector, Form: FormArith, Srcs: 3, Trap: true, Flops: 2, Lanes: Vector(pairBodies[bodyMul][bodySub][pairLeft], lanesFmsub)},
	FNEGV:  {Name: "fnegv", Class: ClassVector, Form: FormArith, Srcs: 1, Flops: 1, Lanes: lanesNeg},
	FABSV:  {Name: "fabsv", Class: ClassVector, Form: FormArith, Srcs: 1, Flops: 1, Lanes: lanesAbs},
	FSQRTV: {Name: "fsqrtv", Class: ClassSqrt, Form: FormArith, Srcs: 1, Trap: true, Flops: 1, Lanes: lanesSqrt},
	FSINV:  {Name: "fsinv", Class: ClassTranscend, Form: FormArith, Srcs: 1, Trap: true, Flops: 1, Lanes: lanesSin},
	FCOSV:  {Name: "fcosv", Class: ClassTranscend, Form: FormArith, Srcs: 1, Trap: true, Flops: 1, Lanes: lanesCos},
	FTANV:  {Name: "ftanv", Class: ClassTranscend, Form: FormArith, Srcs: 1, Trap: true, Flops: 1, Lanes: lanesTan},
	FEXPV:  {Name: "fexpv", Class: ClassTranscend, Form: FormArith, Srcs: 1, Trap: true, Flops: 1, Lanes: lanesExp},
	FLOGV:  {Name: "flogv", Class: ClassTranscend, Form: FormArith, Srcs: 1, Trap: true, Flops: 1, Lanes: lanesLog},
	FTRNCV: {Name: "ftrncv", Class: ClassVector, Form: FormArith, Srcs: 1, Lanes: lanesTrunc},
	FMOVV:  {Name: "fmovv", Class: ClassVector, Form: FormArith, Srcs: 1, Lanes: lanesMov},
	FCMPV:  {Name: "fcmpv", Class: ClassVector, Form: FormArith, Srcs: 2, Lanes: lanesFalse},
	FANDV:  {Name: "fandv", Class: ClassVector, Form: FormArith, Srcs: 2, Lanes: lanesAnd},
	FORV:   {Name: "forv", Class: ClassVector, Form: FormArith, Srcs: 2, Lanes: lanesOr},
	FNOTV:  {Name: "fnotv", Class: ClassVector, Form: FormArith, Srcs: 1, Lanes: lanesNot},
	FEQVV:  {Name: "feqvv", Class: ClassVector, Form: FormArith, Srcs: 2, Lanes: lanesEqv},
	FNEQV:  {Name: "fneqv", Class: ClassVector, Form: FormArith, Srcs: 2, Lanes: lanesNeqv},
	FSELV:  {Name: "fselv", Class: ClassVector, Form: FormArith, Srcs: 3, Lanes: lanesSel},
	SPILLV: {Name: "fstrv", Class: ClassSpill, Form: FormSpill, Lanes: lanesMov},
	RESTV:  {Name: "flodv", Class: ClassSpill, Form: FormRestore, Lanes: lanesMov},
	JNZ:    {Name: "jnz", Class: ClassLoop},
}

// cmpLanes are FCMPV's lane loops by predicate; a predicate outside the
// table compares false in every lane (the table row's loop).
var cmpLanes = [...]LaneFunc{
	CmpEQ: lanesCmpEQ, CmpNE: lanesCmpNE, CmpLT: lanesCmpLT,
	CmpLE: lanesCmpLE, CmpGT: lanesCmpGT, CmpGE: lanesCmpGE,
}

// unknownOp is what an opcode outside the table decodes as: a nameless
// two-source vector op with no lane loop, which every evaluator reports
// as unimplemented after resolving its operands.
var unknownOp = OpInfo{Class: ClassVector, Form: FormArith, Srcs: 2}

// Info returns the op's table row.
func (op Opcode) Info() *OpInfo {
	if op < 0 || int(op) >= len(ops) {
		return &unknownOp
	}
	return &ops[op]
}

// Lanes resolves the instruction's lane loop from the table: exactly one
// result is non-nil for an op that computes lanes, both are nil for one
// that does not (stores, nop, jnz, an opcode outside the table).
func (i Instr) Lanes() (LaneFunc, LaneErrFunc) {
	info := i.Op.Info()
	if i.IntOp && info.IntLanes != nil {
		return nil, info.IntLanes
	}
	if i.Op == FCMPV && i.Cmp >= 0 && int(i.Cmp) < len(cmpLanes) {
		return cmpLanes[i.Cmp], nil
	}
	return info.Lanes, nil
}

// Sources returns the operands the instruction reads as lane vectors, by
// position (A, B, C); a position its form does not read is NoOperand. A
// load's and a restore's A name what they copy from and are not lanes
// another instruction produced.
func (i Instr) Sources() (s [3]Operand) {
	switch i.Op.Info().Form {
	case FormSpill:
		s[0] = i.A
	case FormStore:
		s[0], s[2] = i.A, i.C
	case FormArith:
		s = [3]Operand{i.A, i.B, i.C}
	}
	return s
}
