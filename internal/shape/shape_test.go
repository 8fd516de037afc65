package shape

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStringNotation(t *testing.T) {
	// Paper notation from Figs. 6 and 8.
	alpha := Interval{Lo: 1, Hi: 128}
	if got := alpha.String(); got != "interval(point 1, point 128)" {
		t.Errorf("got %q", got)
	}
	beta := Prod{Dims: []Shape{Ref{Name: "alpha"}, Interval{Lo: 1, Hi: 64}}}
	want := "prod_dom[domain 'alpha', interval(point 1, point 64)]"
	if got := beta.String(); got != want {
		t.Errorf("got %q want %q", got, want)
	}
	s := Interval{Lo: 1, Hi: 64, Serial: true}
	if got := s.String(); got != "serial_interval(point 1, point 64)" {
		t.Errorf("got %q", got)
	}
}

func TestResolve(t *testing.T) {
	env := new(Env).Bind("alpha", Interval{Lo: 1, Hi: 128})
	env = env.Bind("beta", Prod{Dims: []Shape{Ref{Name: "alpha"}, Interval{Lo: 1, Hi: 64}}})
	r := Resolve(Ref{Name: "beta"}, env)
	if Rank(r) != 2 || Size(r) != 128*64 {
		t.Fatalf("resolved %v: rank %d size %d", r, Rank(r), Size(r))
	}
	ext := Extents(r)
	if ext[0] != 128 || ext[1] != 64 {
		t.Fatalf("extents %v", ext)
	}
}

func TestResolveShadowing(t *testing.T) {
	env := new(Env).Bind("a", Interval{Lo: 1, Hi: 4})
	inner := env.Bind("a", Interval{Lo: 1, Hi: 8})
	if Size(Resolve(Ref{Name: "a"}, inner)) != 8 {
		t.Error("inner binding should shadow")
	}
	if Size(Resolve(Ref{Name: "a"}, env)) != 4 {
		t.Error("outer binding should be intact")
	}
}

func TestResolveUnboundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Resolve(Ref{Name: "nope"}, nil)
}

func TestSerialClassification(t *testing.T) {
	par := Of(64, 64)
	ser := Prod{Dims: []Shape{Interval{Lo: 1, Hi: 64, Serial: true}, Interval{Lo: 1, Hi: 64}}}
	if Serial(par) {
		t.Error("parallel shape misclassified")
	}
	if !Serial(ser) {
		t.Error("serial shape misclassified")
	}
	if Congruent(par, ser) {
		t.Error("serial and parallel shapes must not be congruent")
	}
}

func TestCongruentIgnoresBounds(t *testing.T) {
	// interval(1,64) and interval(0,63) describe the same iteration space.
	a := Interval{Lo: 1, Hi: 64}
	b := Interval{Lo: 0, Hi: 63}
	if !Congruent(a, b) {
		t.Error("same-extent intervals should be congruent")
	}
	if Equal(a, b) {
		t.Error("Equal must distinguish bounds")
	}
}

func TestOfConstructors(t *testing.T) {
	if Rank(Of(128)) != 1 || Size(Of(128)) != 128 {
		t.Error("Of(128)")
	}
	if Rank(Of(128, 64)) != 2 || Size(Of(128, 64)) != 128*64 {
		t.Error("Of(128,64)")
	}
	if !Serial(SerialOf(16)) {
		t.Error("SerialOf not serial")
	}
}

func randShape(r *rand.Rand, depth int) Shape {
	if depth <= 0 || r.Intn(3) == 0 {
		return Interval{Lo: 1 + r.Intn(4), Hi: 1 + r.Intn(4) + 20, Serial: r.Intn(2) == 0}
	}
	n := 1 + r.Intn(3)
	dims := make([]Shape, n)
	for i := range dims {
		dims[i] = randShape(r, depth-1)
	}
	return Prod{Dims: dims}
}

// Property: Congruent is an equivalence relation (reflexive on random
// shapes, symmetric across random pairs).
func TestCongruentEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randShape(r, 2)
		b := randShape(r, 2)
		if !Congruent(a, a) || !Congruent(b, b) {
			return false
		}
		return Congruent(a, b) == Congruent(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Size is the product of Extents and Equal implies Congruent.
func TestSizeExtentsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randShape(r, 2)
		n := 1
		for _, e := range Extents(s) {
			if e <= 0 {
				return false
			}
			n *= e
		}
		return n == Size(s) && Congruent(s, s) && Equal(s, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockwiseLayoutSmall(t *testing.T) {
	// 64x64 over 16 PEs: expect 4x4 PE grid with 16x16 blocks.
	l := Blockwise(Of(64, 64), 16)
	if l.PEDims[0]*l.PEDims[1] != 16 {
		t.Fatalf("PE grid %v", l.PEDims)
	}
	if l.SubgridSize()*l.PEsUsed() < 64*64 {
		t.Fatalf("layout does not cover: %+v", l)
	}
}

func TestBlockwiseShapeSmallerThanMachine(t *testing.T) {
	l := Blockwise(Of(4), 2048)
	if l.PEsUsed() > 4 {
		t.Fatalf("more PEs used than points: %+v", l)
	}
	if l.SubgridSize() != 1 {
		t.Fatalf("subgrid should be a single point: %+v", l)
	}
}

// Property: blockwise layout covers the shape (blocks × PE grid ≥ extents,
// per dimension) and never assigns more PEs than the machine has.
func TestBlockwiseCoversProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := 1 + r.Intn(3)
		ext := make([]int, dims)
		for i := range ext {
			ext[i] = 1 + r.Intn(200)
		}
		pes := 1 << (1 + r.Intn(11)) // 2..2048
		l := Blockwise(Of(ext...), pes)
		total := 1
		for i := range ext {
			if l.Block[i]*l.PEDims[i] < ext[i] {
				return false
			}
			total *= l.PEDims[i]
		}
		return total <= pes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVPRatio(t *testing.T) {
	l := Blockwise(Of(1024, 1024), 2048)
	if l.VPRatio() < 512 || l.VPRatio() > 1024 {
		t.Fatalf("vp ratio %v", l.VPRatio())
	}
}

func TestOffPEFraction(t *testing.T) {
	l := Blockwise(Of(1024, 1024), 2048)
	for d := 0; d < 2; d++ {
		f, _ := l.ShiftCost(d, 1)
		if f <= 0 || f > 1 {
			t.Fatalf("fraction %v", f)
		}
	}
	// A dimension held entirely on one PE needs no off-PE traffic.
	one := Layout{Extents: []int{64}, PEDims: []int{1}, Block: []int{64}, PEs: 2048}
	if f, _ := one.ShiftCost(0, 1); f != 0 {
		t.Error("single-PE dimension should have zero off-PE fraction")
	}
}
