package opt

import (
	"strings"
	"testing"

	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/parser"
	"f90y/internal/shape"
)

func mustModule(t *testing.T, src string) *lower.Module {
	t.Helper()
	prog, err := parser.Parse("test.f90", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := lower.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return mod
}

func wrap(body string) string {
	return "program t\n" + body + "\nend program t\n"
}

func topActions(i nir.Imp) []nir.Imp {
	if seq, ok := i.(nir.Sequentially); ok {
		return seq.List
	}
	if _, ok := i.(nir.Skip); ok {
		return nil
	}
	return []nir.Imp{i}
}

func TestClassification(t *testing.T) {
	mod := mustModule(t, wrap(`real, array(16,16) :: a, b
real c(16)
real s
integer i
a = 2*a + 1
b = cshift(a, 1, 1)
s = s + 1
do i = 1, 16
  c(i) = a(i,i)
end do`))
	cls := &Classifier{Syms: mod.Syms}
	acts := topActions(mod.Body)
	// a=2a+1 (compute); comm temp move (comm); b=tmp (compute);
	// s=s+1 (host); do (host); trailing i store (host).
	var got []Class
	for _, a := range acts {
		got = append(got, cls.Classify(a))
	}
	want := []Class{Compute, Comm, Compute, Host, Host, Host}
	if len(got) != len(want) {
		t.Fatalf("phases = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phase %d = %v, want %v (all %v)", i, got[i], want[i], got)
		}
	}
}

func TestMisalignedSectionIsComm(t *testing.T) {
	// §2.1 L(32:64) = L(96:128): a shifted copy is communication.
	mod := mustModule(t, wrap("integer l(128)\nl(32:64) = l(96:128)"))
	cls := &Classifier{Syms: mod.Syms}
	if got := cls.Classify(topActions(mod.Body)[0]); got != Comm {
		t.Fatalf("misaligned section classified %v", got)
	}
}

func TestAlignedSectionIsCompute(t *testing.T) {
	mod := mustModule(t, wrap("integer, array(32,32) :: a, b\nb(1:32:2,:) = a(1:32:2,:)"))
	cls := &Classifier{Syms: mod.Syms}
	if got := cls.Classify(topActions(mod.Body)[0]); got != Compute {
		t.Fatalf("aligned section classified %v", got)
	}
}

func TestGatherIsComm(t *testing.T) {
	mod := mustModule(t, wrap("integer, array(8,8) :: a, b\nforall (i=1:8, j=1:8) a(i,j) = b(j,i)"))
	cls := &Classifier{Syms: mod.Syms}
	if got := cls.Classify(topActions(mod.Body)[0]); got != Comm {
		t.Fatalf("transpose forall classified %v", got)
	}
}

func TestPadMoveFig10Mask(t *testing.T) {
	mod := mustModule(t, wrap("integer, array(32,32) :: a, b\nb(1:32:2,:) = a(1:32:2,:)"))
	cls := &Classifier{Syms: mod.Syms}
	m := topActions(mod.Body)[0].(nir.Move)
	padded, did := cls.PadMove(m)
	if !did {
		t.Fatal("padding did not apply")
	}
	if !shape.Congruent(padded.Over, shape.Of(32, 32)) {
		t.Fatalf("padded over %v", padded.Over)
	}
	mask := nir.PrintValue(padded.Moves[0].Mask)
	// Fig. 10 mask: BINARY(Equals, BINARY(Mod, coord - lo, 2), 0).
	if !strings.Contains(mask, "Mod") || !strings.Contains(mask, "Equals") {
		t.Errorf("mask = %s", mask)
	}
	for _, g := range padded.Moves {
		if _, ok := g.Tgt.(nir.AVar).Field.(nir.Everywhere); !ok {
			t.Errorf("target not everywhere: %s", nir.PrintValue(g.Tgt))
		}
	}
}

func TestPadMoveBoundsOnly(t *testing.T) {
	// A contiguous prefix section needs only a <= test, no Mod.
	mod := mustModule(t, wrap("integer a(64), b(64)\nb(1:32) = a(1:32)"))
	cls := &Classifier{Syms: mod.Syms}
	m := topActions(mod.Body)[0].(nir.Move)
	padded, did := cls.PadMove(m)
	if !did {
		t.Fatal("padding did not apply")
	}
	mask := nir.PrintValue(padded.Moves[0].Mask)
	if strings.Contains(mask, "Mod") {
		t.Errorf("unit-stride section should not test Mod: %s", mask)
	}
	if !strings.Contains(mask, "LessEq") {
		t.Errorf("missing bound test: %s", mask)
	}
}

func TestFig9DomainBlocking(t *testing.T) {
	// Fig. 9: two like-shape moves separated by a serial DO over the
	// diagonal; the optimizer must fuse the moves into one computation
	// block, leaving two phases.
	src := wrap(`integer, array(64,64) :: a, b
integer c(64)
integer i
forall (i=1:64, j=1:64) a(i,j) = b(i,j) + j
do i = 1, 64
  c(i) = a(i,i)
end do
b = a`)
	mod := mustModule(t, src)
	before := Phases(mod.Body, mod.Syms)
	if CountClass(before, Compute) != 2 || CountClass(before, Host) != 2 {
		t.Fatalf("before: %v", before)
	}

	out, stats := Optimize(mod, Default)
	after := Phases(out.Body, out.Syms)
	// One fused computation block, the serial DO, and the DO index's
	// final store.
	if len(after) != 3 || CountClass(after, Compute) != 1 {
		t.Fatalf("after: %v\n%s", after, nir.Print(out.Body))
	}
	if stats.FusedMoves != 1 {
		t.Fatalf("fused = %d", stats.FusedMoves)
	}
	// The fused block holds both guarded moves.
	fused := topActions(out.Body)[0].(nir.Move)
	if len(fused.Moves) != 2 {
		t.Fatalf("fused moves = %d", len(fused.Moves))
	}
}

func TestFig10MaskedBlocking(t *testing.T) {
	// Fig. 10: four statements become one 3-pair computation block over
	// the 32x32 shape plus a 1-pair block over the vector shape.
	src := wrap(`integer, array(32,32) :: a, b
integer c(32)
integer n
a = n
b(1:32:2,:) = a(1:32:2,:)
c = n + 1
b(2:32:2,:) = 5*a(2:32:2,:)`)
	mod := mustModule(t, src)
	out, stats := Optimize(mod, Default)
	acts := topActions(out.Body)
	if len(acts) != 2 {
		t.Fatalf("phases = %d:\n%s", len(acts), nir.Print(out.Body))
	}
	if stats.PaddedMoves != 2 {
		t.Fatalf("padded = %d", stats.PaddedMoves)
	}
	big := acts[0].(nir.Move)
	if len(big.Moves) != 3 || !shape.Congruent(big.Over, shape.Of(32, 32)) {
		t.Fatalf("big block: %d moves over %v", len(big.Moves), big.Over)
	}
	small := acts[1].(nir.Move)
	if len(small.Moves) != 1 || shape.Size(small.Over) != 32 {
		t.Fatalf("small block: %d moves over %v", len(small.Moves), small.Over)
	}
	// The two padded guards must be complementary Mod tests.
	m1 := nir.PrintValue(big.Moves[1].Mask)
	m2 := nir.PrintValue(big.Moves[2].Mask)
	if !strings.Contains(m1, "Mod") || !strings.Contains(m2, "Mod") || m1 == m2 {
		t.Errorf("masks:\n%s\n%s", m1, m2)
	}
}

func TestBlockingRespectsDependences(t *testing.T) {
	// b = a; a = 2*b may not fuse the second into the first pointwise?
	// Pointwise fusion IS legal here (same shape): check it happens.
	src := wrap("integer x(8), y(8)\ny = x\nx = 2*y")
	mod := mustModule(t, src)
	out, _ := Optimize(mod, Default)
	acts := topActions(out.Body)
	if len(acts) != 1 {
		t.Fatalf("pointwise RAW should fuse: %d phases", len(acts))
	}

	// A communication between like-shape moves blocks hoisting when the
	// later move depends on it.
	src2 := wrap(`integer x(8), y(8), z(8)
y = x
z = cshift(y, 1)
x = z + 1`)
	mod2 := mustModule(t, src2)
	out2, _ := Optimize(mod2, Default)
	phases := Phases(out2.Body, out2.Syms)
	if CountClass(phases, Compute) != 2 || CountClass(phases, Comm) != 1 {
		t.Fatalf("phases = %v", phases)
	}
}

func TestBlockingHoistsPastIndependentComm(t *testing.T) {
	// The unrelated communication on z hoists to the front (it conflicts
	// with nothing before it), after which all three like-shape moves
	// fuse into a single computation block: [comm, compute].
	src := wrap(`integer x(8), y(8), z(8), w(8)
y = x + 1
w = cshift(z, 1)
x = y*2`)
	mod := mustModule(t, src)
	out, stats := Optimize(mod, Default)
	if stats.FusedMoves != 2 {
		t.Fatalf("fused = %d\n%s", stats.FusedMoves, nir.Print(out.Body))
	}
	if stats.HoistedComms != 1 {
		t.Fatalf("hoisted = %d", stats.HoistedComms)
	}
	phases := Phases(out.Body, out.Syms)
	if len(phases) != 2 || phases[0] != Comm || phases[1] != Compute {
		t.Fatalf("phases = %v", phases)
	}
}

func TestCommHoistingClustersSWEPattern(t *testing.T) {
	// The SWE inner-loop pattern: comm, compute, comm, compute over the
	// same shape. Hoisting clusters the communications so the computes
	// fuse: comm, comm, compute.
	src := wrap(`real a(16), b(16), c(16), d(16)
c = cshift(a, 1)*0.5
d = cshift(b, 1)*0.5 + c`)
	mod := mustModule(t, src)
	out, _ := Optimize(mod, Default)
	phases := Phases(out.Body, out.Syms)
	if CountClass(phases, Compute) != 1 || CountClass(phases, Comm) != 2 {
		t.Fatalf("phases = %v\n%s", phases, nir.Print(out.Body))
	}
	// And the communications come first.
	if phases[0] != Comm || phases[1] != Comm || phases[2] != Compute {
		t.Fatalf("order = %v", phases)
	}
}

func TestBlockingInsideSerialLoop(t *testing.T) {
	// The SWE pattern: a time loop whose body contains parallel moves;
	// blocking must apply inside the DO body.
	src := wrap(`real, array(16,16) :: u, v
integer it
do it = 1, 10
  u = u + 1.0
  v = v*2.0
end do`)
	mod := mustModule(t, src)
	out, stats := Optimize(mod, Default)
	if stats.FusedMoves != 1 {
		t.Fatalf("fused inside loop = %d", stats.FusedMoves)
	}
	loop := topActions(out.Body)[0].(nir.Do)
	if mv, ok := loop.Body.(nir.Move); !ok || len(mv.Moves) != 2 {
		t.Fatalf("loop body: %s", nir.Print(loop.Body))
	}
}

func TestDifferentShapesDoNotFuse(t *testing.T) {
	src := wrap("integer a(8)\ninteger b(16)\na = 1\nb = 2")
	mod := mustModule(t, src)
	out, stats := Optimize(mod, Default)
	if stats.FusedMoves != 0 {
		t.Fatal("incongruent shapes fused")
	}
	if len(topActions(out.Body)) != 2 {
		t.Fatalf("phases = %d", len(topActions(out.Body)))
	}
}

func TestOptimizeWithBlockingDisabled(t *testing.T) {
	// The CMF-like configuration pads but does not fuse.
	src := wrap(`integer, array(32,32) :: a, b
a = 1
b = 2*a`)
	mod := mustModule(t, src)
	out, stats := Optimize(mod, Options{PadSections: true})
	if stats.FusedMoves != 0 {
		t.Fatal("blocking ran while disabled")
	}
	if len(topActions(out.Body)) != 2 {
		t.Fatalf("phases = %d", len(topActions(out.Body)))
	}
}

func TestOptimizePreservesWrapper(t *testing.T) {
	src := wrap("integer a(8), b(8)\na = 1\nb = a")
	mod := mustModule(t, src)
	out, _ := Optimize(mod, Default)
	text := nir.Print(out.Prog)
	if !strings.Contains(text, "PROGRAM(") || !strings.Contains(text, "WITH_DECL") {
		t.Fatalf("wrapper lost:\n%s", text)
	}
	// And the wrapper's body is the optimized one: a single fused move.
	if !strings.Contains(text, "MOVE<") {
		t.Fatalf("no move in prog:\n%s", text)
	}
}

func TestPhasesSummary(t *testing.T) {
	src := wrap(`real a(8), b(8)
real s
a = 1
b = cshift(a, 1)
s = sum(b)`)
	mod := mustModule(t, src)
	p := Phases(mod.Body, mod.Syms)
	if CountClass(p, Comm) != 2 { // cshift + reduction
		t.Fatalf("phases = %v", p)
	}
}

func TestSerialLoopFusion(t *testing.T) {
	// Two independent serial loops over identical bounds fuse into one,
	// even across the trailing index stores between them.
	src := wrap(`integer, array(8,8) :: a, b
integer c(8), d(8)
integer i, j
forall (i=1:8, j=1:8) a(i,j) = i + j
forall (i=1:8, j=1:8) b(i,j) = i*j
do i = 1, 8
  c(i) = a(i,i)
end do
do j = 1, 8
  d(j) = b(j,j)
end do`)
	mod := mustModule(t, src)
	out, stats := Optimize(mod, Default)
	if stats.FusedLoops != 1 {
		t.Fatalf("fused loops = %d\n%s", stats.FusedLoops, nir.Print(out.Body))
	}
	dos := 0
	nir.WalkImps(out.Body, func(a nir.Imp) {
		if _, ok := a.(nir.Do); ok {
			dos++
		}
	})
	if dos != 1 {
		t.Fatalf("loops remaining = %d", dos)
	}
}

func TestSerialLoopFusionRespectsDependence(t *testing.T) {
	// The second loop reads what the first writes: no fusion.
	src := wrap(`integer c(8), d(8)
integer i, j
do i = 1, 8
  c(i) = i
end do
do j = 1, 8
  d(j) = c(9-j)
end do`)
	mod := mustModule(t, src)
	_, stats := Optimize(mod, Default)
	if stats.FusedLoops != 0 {
		t.Fatalf("dependent loops fused")
	}
}

func TestSerialLoopFusionDifferentBounds(t *testing.T) {
	src := wrap(`integer c(8), d(4)
integer i, j
do i = 1, 8
  c(i) = i
end do
do j = 1, 4
  d(j) = j
end do`)
	mod := mustModule(t, src)
	_, stats := Optimize(mod, Default)
	if stats.FusedLoops != 0 {
		t.Fatalf("different-bounds loops fused")
	}
}

// TestClassifyDoesNotAllocate: the passes classify every move, so a
// classification is a walk and nothing more — for a plain compute move,
// a masked one, and one the optimizer answers from its carried verdict.
func TestClassifyDoesNotAllocate(t *testing.T) {
	mod := mustModule(t, wrap(`real, array(16,16) :: a, b, c
a = 0.5*b + 0.25*c + 0.125
where (a > 0.5) b = 0.5*a`))
	o := &optimizer{cls: &Classifier{Syms: mod.Syms}, opts: Default, verdicts: map[*nir.GuardedMove]Verdict{}}
	body := o.padAll(mod.Body) // classifies once, remembers
	acts := topActions(body)
	for _, a := range acts {
		if v := o.verdict(a); v.Class != Compute {
			t.Fatalf("%s classified %v, want compute", nir.Print(a), v.Class)
		}
	}
	calls := o.cls.Calls
	if n := testing.AllocsPerRun(100, func() {
		for _, a := range acts {
			o.cls.Classify(a)
			o.verdict(a)
		}
	}); n != 0 {
		t.Errorf("classifying allocates %v times a round, want 0", n)
	}
	if got, want := o.cls.Calls-calls, 101*len(acts); got != want {
		t.Errorf("%d classification walks, want %d: a carried verdict must not walk again", got, want)
	}
}
