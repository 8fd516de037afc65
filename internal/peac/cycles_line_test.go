package peac

import (
	"testing"

	"f90y/internal/source"
)

// lineTestBody builds a body exercising every accounting path: plain
// serial instructions, a dual-issued pair where the paired instruction
// raises the group cost, a pair where it does not, spills, an
// instruction with no provenance (falls back to the anchor), and the
// loop jnz.
func lineTestBody() []Instr {
	at := func(line int) source.Pos { return source.Pos{File: "k.f90", Line: line, Col: 1} }
	return []Instr{
		{Op: FLODV, Pos: at(3)},
		{Op: FMULV, Pos: at(3)},
		{Op: FDIVV, Pos: at(4), Paired: true}, // raises the group: 36 > 6, +30 to divide@4
		{Op: FADDV, Pos: at(4)},
		{Op: FSTRV, Pos: at(4), Paired: true}, // does not raise: 6 == 6, free
		{Op: SPILLV, Pos: at(3)},
		{Op: RESTV, Pos: at(3)},
		{Op: FSINV},           // no Pos: attributed to the anchor
		{Op: JNZ, Pos: at(3)}, // skipped; the trailing LoopJnz term charges loop@anchor
	}
}

// TestBodyCyclesByLineConservation pins the tentpole invariant the
// machine models build on: the per-(line, class) attribution sums
// exactly to BodyCycles and its per-class marginals equal
// BodyCyclesByClass, under the same dual-issue accounting.
func TestBodyCyclesByLineConservation(t *testing.T) {
	body := lineTestBody()
	anchor := source.Pos{File: "k.f90", Line: 3, Col: 1}
	c := DefaultCost

	cells := c.BodyCyclesByLine(nil, body, anchor)
	total := 0
	var marginals ClassCycles
	byCell := map[LineCell]int{}
	for _, cell := range cells {
		if cell.Cycles == 0 {
			t.Errorf("zero-cycle cell emitted: %+v", cell)
		}
		if _, dup := byCell[cell.LineCell]; dup {
			t.Errorf("cell listed twice: %+v", cell.LineCell)
		}
		byCell[cell.LineCell] = cell.Cycles
		total += cell.Cycles
		marginals[cell.Class] += cell.Cycles
	}
	if want := c.BodyCycles(body); total != want {
		t.Errorf("per-line attribution sums to %d, BodyCycles = %d", total, want)
	}
	if want := c.BodyCyclesByClass(body); marginals != want {
		t.Errorf("per-class marginals = %v, BodyCyclesByClass = %v", marginals, want)
	}

	// Spot-check the accounting: the raising paired divide charges its
	// increment to its own line and class.
	if got := byCell[LineCell{Pos: source.Pos{File: "k.f90", Line: 4, Col: 1}, Class: ClassDivide}]; got != c.Divide-c.VectorOp {
		t.Errorf("raising paired divide charged %d cycles, want %d", got, c.Divide-c.VectorOp)
	}
	// The Pos-less transcendental lands on the anchor.
	if got := byCell[LineCell{Pos: anchor, Class: ClassTranscend}]; got != c.Transcend {
		t.Errorf("anchored transcendental charged %d cycles, want %d", got, c.Transcend)
	}
	// Loop control lands on the anchor exactly once.
	if got := byCell[LineCell{Pos: anchor, Class: ClassLoop}]; got != c.LoopJnz {
		t.Errorf("loop control charged %d cycles, want %d", got, c.LoopJnz)
	}
}
