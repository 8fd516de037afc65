package pe

import (
	"strings"
	"testing"

	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/opt"
	"f90y/internal/parser"
	"f90y/internal/peac"
)

// computeMove lowers a source fragment and returns its first compute-class
// move plus the symbol table.
func computeMove(t *testing.T, src string) (nir.Move, *lower.SymTab) {
	t.Helper()
	prog, err := parser.Parse("test.f90", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := lower.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	mod, _ = opt.OptimizeObs(mod, opt.Default, nil)
	cls := &opt.Classifier{Syms: mod.Syms}
	var list []nir.Imp
	if seq, ok := mod.Body.(nir.Sequentially); ok {
		list = seq.List
	} else {
		list = []nir.Imp{mod.Body}
	}
	for _, a := range list {
		if m, ok := a.(nir.Move); ok && cls.Classify(m) == opt.Compute {
			return m, mod.Syms
		}
	}
	t.Fatalf("no compute move in:\n%s", src)
	return nir.Move{}, nil
}

const fig12Src = `program swe
real, array(64,64) :: z, u, v, p, t0, t1, t2
real fsdx, fsdy
z = (fsdx*(v - t0) - fsdy*(u - t1)) / (p + t2)
end program swe
`

func TestFig12NaiveEncoding(t *testing.T) {
	m, syms := computeMove(t, fig12Src)
	r, err := Compile("Pk51vs1", m, syms, Naive)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 12's naive encoding: 6 loads, 7 arithmetic ops, 1 store = 14
	// body instructions before the jnz.
	if got := r.InstrCount(); got != 14 {
		t.Fatalf("naive body = %d instructions:\n%s", got, r.Format())
	}
	text := r.Format()
	for _, want := range []string{"flodv [aP", "fsubv", "fmulv", "fdivv", "fstrv", "jnz ac2 Pk51vs1_"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, ",") {
		t.Errorf("naive encoding must not dual-issue:\n%s", text)
	}
	if r.SpillSlots != 0 {
		t.Errorf("naive spills = %d", r.SpillSlots)
	}
}

func TestFig12OptimizedEncoding(t *testing.T) {
	m, syms := computeMove(t, fig12Src)
	naive, err := Compile("Pk51vs1", m, syms, Naive)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Compile("Pk51vs1", m, syms, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	// Chaining folds loads into arithmetic and fmsub fuses the
	// multiply-subtract: the paper's 15 -> 9 reduction (with jnz) maps to
	// 14 -> ~10 body instructions here.
	if opt.InstrCount() >= naive.InstrCount() {
		t.Fatalf("optimized (%d) not smaller than naive (%d):\n%s",
			opt.InstrCount(), naive.InstrCount(), opt.Format())
	}
	if opt.InstrCount() > 10 {
		t.Fatalf("optimized body = %d instructions, want <= 10:\n%s", opt.InstrCount(), opt.Format())
	}
	text := opt.Format()
	if !strings.Contains(text, "fmsubv") && !strings.Contains(text, "fmaddv") {
		t.Errorf("no chained multiply-add:\n%s", text)
	}
	// Chained memory operand appears inside an arithmetic op.
	chained := false
	for _, in := range opt.Body {
		if in.Arithmetic() && in.MemOperand() {
			chained = true
		}
	}
	if !chained {
		t.Errorf("no load chaining:\n%s", text)
	}

	cm := peac.DefaultCost
	nc, oc := cm.BodyCycles(naive.Body), cm.BodyCycles(opt.Body)
	if oc >= nc {
		t.Fatalf("optimized cycles %d !< naive cycles %d", oc, nc)
	}
	if float64(oc) > 0.8*float64(nc) {
		t.Errorf("expected >20%% cycle reduction: %d -> %d", nc, oc)
	}
}

func TestOverlapPairing(t *testing.T) {
	m, syms := computeMove(t, fig12Src)
	r, err := Compile("P", m, syms, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	paired := 0
	for _, in := range r.Body {
		if in.Paired {
			paired++
		}
	}
	if paired == 0 {
		t.Fatalf("no dual-issued pairs:\n%s", r.Format())
	}
	if !strings.Contains(r.Format(), ", ") {
		t.Errorf("paired line not printed:\n%s", r.Format())
	}
	// Pairing reduces cycles relative to the same body without pairs.
	flat := make([]peac.Instr, len(r.Body))
	copy(flat, r.Body)
	for i := range flat {
		flat[i].Paired = false
	}
	cm := peac.DefaultCost
	if cm.BodyCycles(r.Body) >= cm.BodyCycles(flat) {
		t.Error("pairing did not reduce modeled cycles")
	}
}

func TestCSEAcrossStatements(t *testing.T) {
	// Two statements sharing the subexpression (a+b): with CSE the sum is
	// computed once.
	src := `program t
real x(32), y(32), a(32), b(32)
x = (a + b)*2.0
y = (a + b)*3.0
end program t
`
	m, syms := computeMove(t, src)
	if len(m.Moves) != 2 {
		t.Fatalf("expected fused block, got %d moves", len(m.Moves))
	}
	withCSE, err := Compile("P", m, syms, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	without, err := Compile("P", m, syms, Options{Chaining: true, Fmadd: true, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if withCSE.InstrCount() >= without.InstrCount() {
		t.Fatalf("CSE did not shrink the block: %d vs %d", withCSE.InstrCount(), without.InstrCount())
	}
	// The shared loads appear once under CSE.
	adds := 0
	for _, in := range withCSE.Body {
		if in.Op == peac.FADDV {
			adds++
		}
	}
	if adds != 1 {
		t.Errorf("a+b computed %d times with CSE:\n%s", adds, withCSE.Format())
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// y = x + 1; z = y * 2 — the load of y in the second statement
	// forwards from the store.
	src := `program t
real x(32), y(32), z(32)
y = x + 1.0
z = y*2.0
end program t
`
	m, syms := computeMove(t, src)
	r, err := Compile("P", m, syms, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	loads := 0
	for _, in := range r.Body {
		if in.Op == peac.FLODV {
			loads++
		}
	}
	chainedLoads := 0
	for _, in := range r.Body {
		if in.Arithmetic() && in.MemOperand() {
			chainedLoads++
		}
	}
	// Only x should be loaded (possibly chained): one memory read total.
	if loads+chainedLoads != 1 {
		t.Fatalf("loads = %d, chained = %d, want 1 total:\n%s", loads, chainedLoads, r.Format())
	}
}

func TestSpillGeneration(t *testing.T) {
	// A wide expression tree whose shared loads all stay live forces
	// pressure past the eight vector registers.
	var names []string
	for c := 'a'; c <= 'l'; c++ {
		names = append(names, string(c))
	}
	src := "program t\nreal " + strings.Join(names, "(16), ") + "(16)\nreal r(16)\n" +
		"r = (a+b+c+d+e+f+g+h+i+j+k+l) * (a*b*c*d*e*f*g*h*i*j*k*l)\nend program t\n"
	m, syms := computeMove(t, src)
	r, err := Compile("P", m, syms, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if r.SpillSlots == 0 {
		t.Fatalf("expected spills:\n%s", r.Format())
	}
	spills, rests := 0, 0
	for _, in := range r.Body {
		switch in.Op {
		case peac.SPILLV:
			spills++
		case peac.RESTV:
			rests++
		}
	}
	if spills == 0 || rests == 0 {
		t.Fatalf("spills=%d restores=%d", spills, rests)
	}
	// Every restore reads a slot some spill wrote.
	written := map[int]bool{}
	for _, in := range r.Body {
		if in.Op == peac.SPILLV {
			written[in.D.N] = true
		}
	}
	for _, in := range r.Body {
		if in.Op == peac.RESTV && !written[in.A.N] {
			t.Fatalf("restore from unwritten slot %d", in.A.N)
		}
	}
}

func TestPhysicalRegisterBound(t *testing.T) {
	// All operands after allocation use architected registers.
	srcs := []string{
		fig12Src,
		"program t\nreal a(8), b(8)\nb = sqrt(a)*a + 2.0/a\nend program t\n",
		"program t\ninteger a(8), b(8)\nb = mod(a, 3) + a/2\nend program t\n",
	}
	for _, src := range srcs {
		m, syms := computeMove(t, src)
		for _, o := range []Options{Naive, Optimized} {
			r, err := Compile("P", m, syms, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range r.Body {
				for _, op := range []peac.Operand{in.A, in.B, in.C, in.D} {
					if op.Kind == peac.VReg && op.N >= peac.NumVRegs {
						t.Fatalf("virtual register leaked: %s in\n%s", op, r.Format())
					}
				}
			}
		}
	}
}

func TestMaskedStore(t *testing.T) {
	src := `program t
integer, array(32,32) :: a, b
b(1:32:2,:) = a(1:32:2,:)
end program t
`
	m, syms := computeMove(t, src)
	r, err := Compile("P", m, syms, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	text := r.Format()
	// The padded move stores under a computed mask and reads the
	// coordinate subgrid (Fig. 10's pseudocode).
	if !strings.Contains(text, "fcmpv.eq") {
		t.Errorf("no mask comparison:\n%s", text)
	}
	masked := false
	for _, in := range r.Body {
		if in.Op == peac.FSTRV && in.C.Kind != peac.NoOperand {
			masked = true
		}
	}
	if !masked {
		t.Errorf("no masked store:\n%s", text)
	}
	hasCoord := false
	for _, p := range r.Params {
		if p.Kind == peac.CoordParam {
			hasCoord = true
		}
	}
	if !hasCoord {
		t.Errorf("no coordinate subgrid parameter: %v", r.Params)
	}
}

func TestIntegerOpsTagged(t *testing.T) {
	src := "program t\ninteger a(8), b(8)\nb = a/2 + mod(a, 3)\nend program t\n"
	m, syms := computeMove(t, src)
	r, err := Compile("P", m, syms, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	intDiv := false
	for _, in := range r.Body {
		if (in.Op == peac.FDIVV || in.Op == peac.FMODV) && in.IntOp {
			intDiv = true
		}
	}
	if !intDiv {
		t.Fatalf("integer division not tagged:\n%s", r.Format())
	}
}

func TestPowerStrengthReduction(t *testing.T) {
	src := "program t\ninteger k(8)\nk = k**2\nend program t\n"
	m, syms := computeMove(t, src)
	r, err := Compile("P", m, syms, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range r.Body {
		if in.Op == peac.FEXPV || in.Op == peac.FLOGV {
			t.Fatalf("k**2 should be a multiply:\n%s", r.Format())
		}
	}
	muls := 0
	for _, in := range r.Body {
		if in.Op == peac.FMULV {
			muls++
		}
	}
	if muls != 1 {
		t.Fatalf("k**2 = %d multiplies:\n%s", muls, r.Format())
	}
}

func TestParamsDescribeIFIFOTraffic(t *testing.T) {
	m, syms := computeMove(t, fig12Src)
	r, err := Compile("P", m, syms, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	arrays := map[string]bool{}
	scalars := map[string]bool{}
	for _, p := range r.Params {
		switch p.Kind {
		case peac.ArrayParam:
			arrays[p.Name] = true
		case peac.ScalarParam:
			scalars[p.Name] = true
		}
	}
	for _, want := range []string{"z", "u", "v", "p", "t0", "t1", "t2"} {
		if !arrays[want] {
			t.Errorf("missing array param %q (have %v)", want, arrays)
		}
	}
	for _, want := range []string{"fsdx", "fsdy"} {
		if !scalars[want] {
			t.Errorf("missing scalar param %q", want)
		}
	}
}

func TestCompileRejectsRuntimeCalls(t *testing.T) {
	m := nir.Move{Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src:  nir.FcnCall{Name: "cm_cshift", Args: nil},
		Tgt:  nir.AVar{Name: "a", Field: nir.Everywhere{}},
	}}}
	if _, err := Compile("P", m, lower.NewSymTab(), Optimized); err == nil {
		t.Fatal("expected error for runtime call")
	}
}

func TestRegisterFileSweep(t *testing.T) {
	// Shrinking the register file increases spills monotonically; growing
	// it eliminates them. "Vector registers tend to be the limiting
	// resource" (§5.2).
	var names []string
	for c := 'a'; c <= 'j'; c++ {
		names = append(names, string(c))
	}
	src := "program t\nreal " + strings.Join(names, "(16), ") + "(16)\nreal r(16)\n" +
		"r = (a+b+c+d+e+f+g+h+i+j) * (a*b*c*d*e*f*g*h*i*j)\nend program t\n"
	m, syms := computeMove(t, src)
	prev := -1
	for _, k := range []int{16, 12, 8, 6, 4} {
		o := Optimized
		o.VRegs = k
		r, err := Compile("P", m, syms, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range r.Body {
			for _, op := range []peac.Operand{in.A, in.B, in.C, in.D} {
				if op.Kind == peac.VReg && op.N >= k {
					t.Fatalf("K=%d: register %s out of file", k, op)
				}
			}
		}
		if prev >= 0 && r.SpillSlots < prev {
			t.Fatalf("spills not monotone: K=%d has %d slots, larger file had %d", k, r.SpillSlots, prev)
		}
		prev = r.SpillSlots
	}
	// A large file needs no spills at all.
	big := Optimized
	big.VRegs = 32
	r, err := Compile("P", m, syms, big)
	if err != nil {
		t.Fatal(err)
	}
	if r.SpillSlots != 0 {
		t.Fatalf("32 registers still spilled %d slots", r.SpillSlots)
	}
}
