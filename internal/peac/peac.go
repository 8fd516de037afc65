// Package peac defines PEAC, the Processing Element Assembly Code of the
// slicewise CM/2 programming model (§2.2). PEAC programs the Weitek
// WTL3164 as a four-wide vector processor: vector loads and stores may be
// overlapped with arithmetic (dual issue), one in-memory operand may be
// chained into an arithmetic instruction, and multiply-add sequences may
// be converted to chained multiply-adds.
//
// The package provides the instruction set, the textual assembly format of
// Fig. 12, and the per-instruction cycle cost model used by the CM/2
// simulator. Every node procedure is a single virtual-subgrid loop: one
// basic block with a single back edge (§5.2).
package peac

import (
	"fmt"

	"f90y/internal/source"
)

// VectorWidth is the number of elements processed by one vector
// instruction (the Weitek four-wide vector abstraction).
const VectorWidth = 4

// NumVRegs is the number of architected vector registers available to the
// allocator. The Weitek register file holds 32 64-bit words, i.e. eight
// four-deep vector registers; vector registers "tend to be the limiting
// resource" (§5.2).
const NumVRegs = 8

// Opcode enumerates PEAC operations.
type Opcode int

// PEAC opcodes.
const (
	NOP Opcode = iota

	FLODV // load vector:  flodv [aPn+0]1++ aVd
	FSTRV // store vector: fstrv aVs [aPn+0]1++ (optional mask in C)

	FADDV // aVd = A + B
	FSUBV // aVd = A - B
	FMULV // aVd = A * B
	FDIVV // aVd = A / B
	FMODV // aVd = A mod B
	FMINV // aVd = min(A,B)
	FMAXV // aVd = max(A,B)

	FMADDV // chained multiply-add: aVd = A*B + C
	FMSUBV // chained multiply-sub: aVd = A*B - C

	FNEGV  // aVd = -A
	FABSV  // aVd = |A|
	FSQRTV // aVd = sqrt(A)
	FSINV  // transcendentals (microcoded, slow)
	FCOSV
	FTANV
	FEXPV
	FLOGV
	FTRNCV // truncate toward zero (float -> int semantics)
	FMOVV  // register move

	FCMPV // compare: aVd = (A <cmp> B) ? 1 : 0
	FANDV // mask and
	FORV  // mask or
	FNOTV // mask not
	FEQVV // mask eqv
	FNEQV // mask neqv
	FSELV // select: aVd = C ? A : B

	SPILLV // spill store:  fstrv aVs [aSP+k]  (allocator-generated)
	RESTV  // spill reload: flodv [aSP+k] aVd

	JNZ // decrement trip counter, branch to loop head
)

// CmpKind selects the comparison for FCMPV.
type CmpKind int

// Comparison kinds.
const (
	CmpEQ CmpKind = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

var cmpNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (c CmpKind) String() string { return cmpNames[c] }

// OperandKind classifies instruction operands.
type OperandKind int

// Operand kinds.
const (
	NoOperand OperandKind = iota
	VReg                  // vector register aVn
	SReg                  // scalar (broadcast) register aSn
	Mem                   // memory vector via pointer register: [aPn+0]1++
	SpillSlot             // spill area slot: [aSP+k]
)

// Operand is one instruction operand.
type Operand struct {
	Kind OperandKind
	N    int // register number or spill slot index
}

// V, S, M, and Slot build operands.
func V(n int) Operand    { return Operand{Kind: VReg, N: n} }
func S(n int) Operand    { return Operand{Kind: SReg, N: n} }
func M(n int) Operand    { return Operand{Kind: Mem, N: n} }
func Slot(n int) Operand { return Operand{Kind: SpillSlot, N: n} }

func (o Operand) String() string {
	switch o.Kind {
	case VReg:
		return fmt.Sprintf("aV%d", o.N)
	case SReg:
		return fmt.Sprintf("aS%d", o.N)
	case Mem:
		return fmt.Sprintf("[aP%d+0]1++", o.N)
	case SpillSlot:
		return fmt.Sprintf("[aSP+%d]", o.N)
	}
	return ""
}

// Instr is one PEAC instruction. A, B, C are sources (C is the fmadd
// addend, the select condition, or the store mask), D the destination.
// IntOp selects integer semantics for division-like operations. Paired
// marks an instruction dual-issued with its predecessor (printed on the
// same line, Fig. 12's optimized encoding). Pos is the Fortran statement
// the instruction descends from (zero when provenance is unknown);
// attribution and profiling key on it, execution ignores it.
type Instr struct {
	Op     Opcode
	Cmp    CmpKind
	A, B   Operand
	C      Operand
	D      Operand
	IntOp  bool
	Paired bool
	Pos    source.Pos
}

// Mnemonic returns the assembly mnemonic.
func (i Instr) Mnemonic() string {
	if i.Op == FCMPV {
		return "fcmpv." + i.Cmp.String()
	}
	return i.Op.Info().Name
}

// String renders the instruction with the operand layout of its form.
func (i Instr) String() string {
	info := i.Op.Info()
	switch {
	case i.Op == JNZ:
		return "jnz ac2"
	case info.Form == FormNone:
		return info.Name
	case info.Form == FormStore && i.C.Kind != NoOperand:
		return fmt.Sprintf("fstrv %s %s ?%s", i.A, i.D, i.C)
	case info.Form != FormArith || info.Srcs == 1:
		return fmt.Sprintf("%s %s %s", i.Mnemonic(), i.A, i.D)
	case info.Srcs == 3:
		return fmt.Sprintf("%s %s %s %s %s", i.Mnemonic(), i.A, i.B, i.C, i.D)
	}
	return fmt.Sprintf("%s %s %s %s", i.Mnemonic(), i.A, i.B, i.D)
}

// MemOperand reports whether the instruction touches memory (loads,
// stores, spills, or a chained memory source operand).
func (i Instr) MemOperand() bool {
	if f := i.Op.Info().Form; f != FormNone && f != FormArith {
		return true
	}
	return i.A.Kind == Mem || i.B.Kind == Mem || i.C.Kind == Mem
}

// Arithmetic reports whether the instruction runs on the FPU datapath.
func (i Instr) Arithmetic() bool { return i.Op.Info().Form == FormArith }

// Flops returns the floating-point operations performed per vector issue
// (over VectorWidth elements). Mask bookkeeping, moves, loads and stores
// count zero.
func (i Instr) Flops() int {
	info := i.Op.Info()
	if i.IntOp && info.Class != ClassTranscend {
		return 0
	}
	return info.Flops * VectorWidth
}
