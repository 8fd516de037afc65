package peac

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOperandFormatting(t *testing.T) {
	cases := map[string]string{
		V(3).String():    "aV3",
		S(28).String():   "aS28",
		M(7).String():    "[aP7+0]1++",
		Slot(2).String(): "[aSP+2]",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
}

func TestInstructionFormattingMatchesFig12(t *testing.T) {
	// Lines from the paper's Fig. 12 listings.
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: FLODV, A: M(7), D: V(3)}, "flodv [aP7+0]1++ aV3"},
		{Instr{Op: FSUBV, A: V(3), B: V(2), D: V(1)}, "fsubv aV3 aV2 aV1"},
		{Instr{Op: FSUBV, A: V(3), B: M(4), D: V(1)}, "fsubv aV3 [aP4+0]1++ aV1"},
		{Instr{Op: FMULV, A: S(28), B: V(1), D: V(3)}, "fmulv aS28 aV1 aV3"},
		{Instr{Op: FSTRV, A: V(3), D: M(6)}, "fstrv aV3 [aP6+0]1++"},
		{Instr{Op: FMADDV, A: V(1), B: V(2), C: V(3), D: V(4)}, "fmaddv aV1 aV2 aV3 aV4"},
		{Instr{Op: SPILLV, A: V(1), D: Slot(0)}, "fstrv aV1 [aSP+0]"},
		{Instr{Op: RESTV, A: Slot(0), D: V(1)}, "flodv [aSP+0] aV1"},
		{Instr{Op: FCMPV, Cmp: CmpEQ, A: V(1), B: S(16), D: V(2)}, "fcmpv.eq aV1 aS16 aV2"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("got %q want %q", got, c.want)
		}
	}
}

func TestRoutineFormat(t *testing.T) {
	r := &Routine{
		Name: "Pk51vs1",
		Body: []Instr{
			{Op: FLODV, A: M(7), D: V(3)},
			{Op: FSUBV, A: V(3), B: M(4), D: V(1)},
			{Op: FMULV, A: S(28), B: V(1), D: V(3)},
			{Op: FLODV, A: M(8), D: V(4), Paired: true},
			{Op: JNZ},
		},
	}
	out := r.Format()
	if !strings.HasPrefix(out, "Pk51vs1_\n") {
		t.Errorf("missing label:\n%s", out)
	}
	if !strings.Contains(out, "fmulv aS28 aV1 aV3, flodv [aP8+0]1++ aV4") {
		t.Errorf("paired line missing:\n%s", out)
	}
	if !strings.HasSuffix(out, "jnz ac2 Pk51vs1_\n") {
		t.Errorf("missing loop branch:\n%s", out)
	}
	if r.InstrCount() != 4 || r.IssueSlots() != 3 {
		t.Errorf("counts: %d instrs, %d slots", r.InstrCount(), r.IssueSlots())
	}
}

func TestCostModelSpillClaim(t *testing.T) {
	// §5.2: "a single vector spill-restore pair costs 18 cycles — roughly
	// equivalent to three single-precision floating point vector
	// operations".
	cm := DefaultCost
	pair := cm.InstrCycles(Instr{Op: SPILLV}) + cm.InstrCycles(Instr{Op: RESTV})
	if pair != 18 {
		t.Fatalf("spill/restore pair = %d cycles, want 18", pair)
	}
	three := 3 * cm.InstrCycles(Instr{Op: FADDV})
	if pair != three {
		t.Fatalf("pair (%d) != three vector ops (%d)", pair, three)
	}
}

func TestBodyCyclesPairing(t *testing.T) {
	cm := DefaultCost
	unpaired := []Instr{
		{Op: FADDV, A: V(0), B: V(1), D: V(2)},
		{Op: FLODV, A: M(2), D: V(3)},
	}
	paired := []Instr{
		{Op: FADDV, A: V(0), B: V(1), D: V(2)},
		{Op: FLODV, A: M(2), D: V(3), Paired: true},
	}
	u, p := cm.BodyCycles(unpaired), cm.BodyCycles(paired)
	if p >= u {
		t.Fatalf("pairing did not save cycles: %d vs %d", p, u)
	}
	// A pair costs the max of its halves plus the jnz.
	if p != cm.VectorOp+cm.LoopJnz {
		t.Fatalf("paired cost = %d", p)
	}
}

func TestDividesCostMore(t *testing.T) {
	cm := DefaultCost
	if cm.InstrCycles(Instr{Op: FDIVV}) <= cm.InstrCycles(Instr{Op: FMULV}) {
		t.Error("divide should cost more than multiply")
	}
	if cm.InstrCycles(Instr{Op: FSINV}) <= cm.InstrCycles(Instr{Op: FDIVV}) {
		t.Error("transcendentals should cost more than divide")
	}
}

func TestFlopsAccounting(t *testing.T) {
	cases := map[Opcode]int{
		FADDV: VectorWidth, FMULV: VectorWidth, FMADDV: 2 * VectorWidth,
		FLODV: 0, FSTRV: 0, FMOVV: 0, FCMPV: 0, FSELV: 0,
	}
	for op, want := range cases {
		if got := (Instr{Op: op}).Flops(); got != want {
			t.Errorf("%v flops = %d, want %d", op, got, want)
		}
	}
	// Integer arithmetic is not floating-point work.
	if (Instr{Op: FADDV, IntOp: true}).Flops() != 0 {
		t.Error("integer add counted as flops")
	}
}

func TestRoutineCycles(t *testing.T) {
	r := &Routine{Name: "P", Body: []Instr{
		{Op: FADDV, A: V(0), B: V(1), D: V(2)},
		{Op: JNZ},
	}}
	cm := DefaultCost
	// 512-element subgrid: 128 four-wide iterations.
	got := cm.RoutineCycles(r, 512)
	want := 128 * (cm.VectorOp + cm.LoopJnz)
	if got != want {
		t.Fatalf("cycles = %d, want %d", got, want)
	}
	if cm.RoutineCycles(r, 0) != 0 {
		t.Error("empty subgrid should cost nothing")
	}
}

// Property: BodyCycles is monotone under removing the Paired flag and
// always positive for non-empty bodies.
func TestBodyCyclesMonotoneProperty(t *testing.T) {
	ops := []Opcode{FADDV, FSUBV, FMULV, FDIVV, FLODV, FSTRV, FSQRTV, FCMPV}
	f := func(seed uint32, k uint8) bool {
		n := int(k%12) + 1
		body := make([]Instr, n)
		s := seed
		for i := range body {
			s = s*1664525 + 1013904223
			body[i] = Instr{Op: ops[int(s>>8)%len(ops)], A: V(0), B: V(1), D: V(2)}
			if i > 0 && s%3 == 0 {
				body[i].Paired = true
			}
		}
		flat := make([]Instr, n)
		copy(flat, body)
		for i := range flat {
			flat[i].Paired = false
		}
		cm := DefaultCost
		return cm.BodyCycles(body) > 0 && cm.BodyCycles(body) <= cm.BodyCycles(flat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBodyCyclesByClassSumsToBodyCycles(t *testing.T) {
	cm := DefaultCost
	// A representative body: loads, paired arithmetic, a divide, a sqrt,
	// a spill/restore pair, and the loop branch.
	body := []Instr{
		{Op: FLODV, A: M(0), D: V(0)},
		{Op: FLODV, A: M(1), D: V(1), Paired: true},
		{Op: FADDV, A: V(0), B: V(1), D: V(2)},
		{Op: SPILLV, A: V(2), D: Slot(0)},
		{Op: FDIVV, A: V(0), B: V(1), D: V(3)},
		{Op: FSTRV, A: V(3), D: M(2), Paired: true},
		{Op: FSQRTV, A: V(3), D: V(4)},
		{Op: RESTV, A: Slot(0), D: V(2)},
		{Op: FMULV, A: V(2), B: V(4), D: V(5)},
		{Op: FSTRV, A: V(5), D: M(3)},
		{Op: JNZ},
	}
	by := cm.BodyCyclesByClass(body)
	if got, want := by.Total(), cm.BodyCycles(body); got != want {
		t.Fatalf("class totals sum to %d, BodyCycles says %d", got, want)
	}
	if by[ClassDivide] == 0 || by[ClassSqrt] == 0 || by[ClassSpill] == 0 ||
		by[ClassMemory] == 0 || by[ClassVector] == 0 {
		t.Errorf("expected every exercised class nonzero: %v", by)
	}
	if by[ClassLoop] != cm.LoopJnz {
		t.Errorf("loop class = %d, want LoopJnz %d", by[ClassLoop], cm.LoopJnz)
	}
}

// Property: class attribution sums exactly to BodyCycles on random
// bodies, including randomly paired instructions.
func TestBodyCyclesByClassSumProperty(t *testing.T) {
	ops := []Opcode{FADDV, FSUBV, FMULV, FDIVV, FLODV, FSTRV, FSQRTV, FSINV, SPILLV, RESTV}
	f := func(seed uint32, k uint8) bool {
		n := int(k%12) + 1
		body := make([]Instr, n)
		s := seed
		for i := range body {
			s = s*1664525 + 1013904223
			body[i] = Instr{Op: ops[int(s>>8)%len(ops)], A: V(0), B: V(1), D: V(2)}
			if i > 0 && s%3 == 0 {
				body[i].Paired = true
			}
		}
		cm := DefaultCost
		return cm.BodyCyclesByClass(body).Total() == cm.BodyCycles(body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// RoutineCycles is the per-PE cost of executing the routine over a local
// subgrid of the given element count.
func (c CostModel) RoutineCycles(r *Routine, subgridElems int) int {
	iters := (subgridElems + VectorWidth - 1) / VectorWidth
	if iters == 0 {
		return 0
	}
	return iters * c.BodyCycles(r.Body)
}
