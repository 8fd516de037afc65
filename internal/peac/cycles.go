package peac

import "f90y/internal/source"

// CycleClass partitions PEAC instructions for cycle attribution: the
// §5.2/§6 analysis reasons about vector arithmetic, microcoded divides
// and transcendentals, memory traffic, spill/restore pairs, and loop
// control as separate budgets, so the simulator reports them as
// separate counters that sum exactly to the total PE cycle count.
type CycleClass int

// Cycle classes.
const (
	// ClassVector covers the single-issue vector datapath: add/sub/mul,
	// min/max, fmadd/fmsub, moves, compares, masks, and selects.
	ClassVector CycleClass = iota
	// ClassDivide covers microcoded divides and mods.
	ClassDivide
	// ClassSqrt covers microcoded square roots.
	ClassSqrt
	// ClassTranscend covers microcoded transcendentals (sin, cos, tan,
	// exp, log).
	ClassTranscend
	// ClassMemory covers vector loads and stores of array subgrids.
	ClassMemory
	// ClassSpill covers allocator-generated spill stores and restores.
	ClassSpill
	// ClassLoop covers the loop-control jnz.
	ClassLoop

	// NumCycleClasses is the number of cycle classes.
	NumCycleClasses
)

var classNames = [NumCycleClasses]string{
	"vector-arith", "divide", "sqrt", "transcend", "load-store", "spill", "loop",
}

func (c CycleClass) String() string {
	if c < 0 || c >= NumCycleClasses {
		return "unknown"
	}
	return classNames[c]
}

// ClassOf assigns one instruction to its cycle class.
func ClassOf(i Instr) CycleClass { return i.Op.Info().Class }

// ClassCycles is a per-class cycle tally for one loop iteration.
type ClassCycles [NumCycleClasses]int

// Total sums the tally.
func (c ClassCycles) Total() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// LineCell is one (source position, cycle class) attribution bucket.
type LineCell struct {
	Pos   source.Pos
	Class CycleClass
}

// LineCycles is one bucket's cycles for one loop iteration.
type LineCycles struct {
	LineCell
	Cycles int
}

// BodyCyclesByLine is the issue-group walker, the one statement of the
// dual-issue accounting: it attributes the cycle cost of one loop
// iteration to (source line, class) cells, appended to dst (which may be
// nil, or a buffer the caller reuses) one entry a cell, in the order the
// body first charges them. Each issue group (a non-paired instruction
// plus every consecutive Paired follower) costs the maximum over its
// members — when a paired instruction raises the group cost, the
// increment goes to its cell — everything else accumulates serially, and
// the loop-control jnz is charged once at the end. Whether a group is
// open is tracked explicitly rather than inferred from a nonzero group
// cost, so an instruction dual-issued into a zero-cost slot (a pair
// following a NOP) still joins that group instead of being charged as a
// fresh serial slot; a body-leading Paired instruction has no group to
// join and opens its own. Instructions without a valid Pos fall back to
// loopPos (the routine's anchor position), as does the jnz charge.
func (c CostModel) BodyCyclesByLine(dst []LineCycles, body []Instr, loopPos source.Pos) []LineCycles {
	out := dst[:0]
	last := 0 // index of the cell charged last: a statement's instructions are adjacent
	charge := func(cell LineCell, cyc int) {
		if last < len(out) && out[last].LineCell == cell {
			out[last].Cycles += cyc
			return
		}
		for last = 0; last < len(out); last++ {
			if out[last].LineCell == cell {
				out[last].Cycles += cyc
				return
			}
		}
		out = append(out, LineCycles{cell, cyc})
	}
	prev := 0     // cost of the open issue group
	open := false // an issue group is open (it may cost 0: a NOP slot)
	for k := range body {
		in := &body[k]
		if in.Op == JNZ {
			continue // charged once by the trailing LoopJnz term
		}
		cell := LineCell{Pos: in.Pos, Class: in.Op.Info().Class}
		if !in.Pos.IsValid() {
			cell.Pos = loopPos
		}
		cyc := c.InstrCycles(*in)
		if in.Paired && open {
			if cyc > prev {
				charge(cell, cyc-prev)
				prev = cyc
			}
			continue
		}
		charge(cell, cyc)
		prev = cyc
		open = true
	}
	charge(LineCell{Pos: loopPos, Class: ClassLoop}, c.LoopJnz)
	return out
}

// ByClass sums line cells to their per-class marginals.
func ByClass(cells []LineCycles) ClassCycles {
	var out ClassCycles
	for _, cell := range cells {
		out[cell.Class] += cell.Cycles
	}
	return out
}

// BodyCyclesByClass attributes BodyCycles to instruction classes: the
// per-class marginals of BodyCyclesByLine.
func (c CostModel) BodyCyclesByClass(body []Instr) ClassCycles {
	return ByClass(c.BodyCyclesByLine(nil, body, source.Pos{}))
}

// BodyCycles is the cycle cost of one loop iteration: the total of
// BodyCyclesByLine.
func (c CostModel) BodyCycles(body []Instr) int {
	return c.BodyCyclesByClass(body).Total()
}
