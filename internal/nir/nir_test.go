package nir

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"f90y/internal/shape"
)

func ew(name string) AVar { return AVar{Name: name, Field: Everywhere{}} }

// fig8Move builds the K/L computation of Fig. 8:
//
//	MOVE[(True, (6, l@everywhere)), (True, (2*k+5, k@everywhere))]
func fig8Move() Move {
	alpha := shape.Interval{Lo: 1, Hi: 128}
	beta := shape.Prod{Dims: []shape.Shape{alpha, shape.Interval{Lo: 1, Hi: 64}}}
	return Move{
		Over: beta,
		Moves: []GuardedMove{
			{Mask: True, Src: IntConst(6), Tgt: ew("l")},
			{Mask: True, Src: Binary{Op: Plus,
				L: Binary{Op: Mul, L: IntConst(2), R: ew("k")},
				R: IntConst(5)}, Tgt: ew("k")},
		},
	}
}

func TestPrintPaperNotation(t *testing.T) {
	m := fig8Move()
	out := Print(m)
	for _, want := range []string{
		"MOVE<",
		"(SCALAR(logical_32, 'True'), (SCALAR(integer_32, '6'), AVAR('l', everywhere)))",
		"BINARY(Plus, BINARY(Mul, SCALAR(integer_32, '2'), AVAR('k', everywhere)), SCALAR(integer_32, '5'))",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q:\n%s", want, out)
		}
	}
}

func TestPrintWithDomainAndDecl(t *testing.T) {
	alpha := shape.Interval{Lo: 1, Hi: 128}
	prog := WithDomain{Name: "alpha", Shape: alpha,
		Body: WithDecl{
			Decl: DeclSet{List: []Decl{
				DeclVar{Name: "l", Type: DField{Shape: shape.Ref{Name: "alpha"}, Elem: Scalar{Kind: Integer32}}},
			}},
			Body: fig8Move(),
		}}
	out := Print(prog)
	for _, want := range []string{
		"WITH_DOMAIN(('alpha', interval(point 1, point 128))",
		"DECLSET[DECL('l', dfield{shape=domain 'alpha', element=integer_32})]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPrintLocalUnderAndSubscript(t *testing.T) {
	beta := shape.Interval{Lo: 1, Hi: 64, Serial: true}
	// Fig. 9's diagonal extraction: c(i) = a(i,i).
	mv := Move{Moves: []GuardedMove{{
		Mask: True,
		Src: AVar{Name: "a", Field: Subscript{Subs: []Value{
			LocalUnder{S: beta, Dim: 1}, LocalUnder{S: beta, Dim: 1},
		}}},
		Tgt: AVar{Name: "c", Field: Subscript{Subs: []Value{LocalUnder{S: beta, Dim: 1}}}},
	}}}
	d := Do{S: beta, Body: mv}
	out := Print(d)
	for _, want := range []string{
		"DO(serial_interval(point 1, point 64)",
		"subscript[local_under(serial_interval(point 1, point 64), 1), local_under(serial_interval(point 1, point 64), 1)]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSeqFlattening(t *testing.T) {
	a := Move{Moves: []GuardedMove{{Mask: True, Src: IntConst(1), Tgt: SVar{Name: "x"}}}}
	b := Move{Moves: []GuardedMove{{Mask: True, Src: IntConst(2), Tgt: SVar{Name: "y"}}}}
	got := Seq(Seq(a, Skip{}), Seq(Seq(b)), Skip{})
	s, ok := got.(Sequentially)
	if !ok || len(s.List) != 2 {
		t.Fatalf("Seq did not flatten: %#v", got)
	}
	if _, ok := Seq().(Skip); !ok {
		t.Error("empty Seq should be Skip")
	}
	if _, ok := Seq(a).(Move); !ok {
		t.Error("singleton Seq should unwrap")
	}
}

func TestReadsWrites(t *testing.T) {
	m := fig8Move()
	r, w := Reads(m), Writes(m)
	if !slices.Contains(r, "k") || slices.Contains(r, "l") {
		t.Errorf("reads = %v", r)
	}
	if !slices.Contains(w, "k") || !slices.Contains(w, "l") {
		t.Errorf("writes = %v", w)
	}
}

func TestReadsIncludesMaskAndSubscripts(t *testing.T) {
	m := Move{Moves: []GuardedMove{{
		Mask: Binary{Op: Greater, L: SVar{Name: "n"}, R: IntConst(0)},
		Src:  IntConst(1),
		Tgt:  AVar{Name: "a", Field: Subscript{Subs: []Value{SVar{Name: "i"}}}},
	}}}
	r := Reads(m)
	if !slices.Contains(r, "n") || !slices.Contains(r, "i") {
		t.Errorf("reads = %v", r)
	}
	if slices.Contains(Reads(m), "a") {
		t.Errorf("target should not be read: %v", r)
	}
}

func TestReadsNested(t *testing.T) {
	inner := Move{Moves: []GuardedMove{{Mask: True, Src: SVar{Name: "b"}, Tgt: SVar{Name: "a"}}}}
	loop := While{Cond: Binary{Op: Less, L: SVar{Name: "i"}, R: SVar{Name: "n"}}, Body: inner}
	r := Reads(loop)
	for _, name := range []string{"b", "i", "n"} {
		if !slices.Contains(r, name) {
			t.Errorf("missing read %q: %v", name, r)
		}
	}
	if !slices.Contains(Writes(loop), "a") {
		t.Errorf("missing write a")
	}
}

func TestRewriteValues(t *testing.T) {
	// Replace SVar n by the constant 3 throughout.
	v := Binary{Op: Plus, L: SVar{Name: "n"}, R: Binary{Op: Mul, L: SVar{Name: "n"}, R: IntConst(2)}}
	got := RewriteValues(v, func(x Value) Value {
		if s, ok := x.(SVar); ok && s.Name == "n" {
			return IntConst(3)
		}
		return x
	})
	want := Binary{Op: Plus, L: IntConst(3), R: Binary{Op: Mul, L: IntConst(3), R: IntConst(2)}}
	if !EqualValue(got, want) {
		t.Fatalf("got %s", PrintValue(got))
	}
}

func TestRewriteImps(t *testing.T) {
	prog := Seq(
		Move{Moves: []GuardedMove{{Mask: True, Src: IntConst(1), Tgt: SVar{Name: "x"}}}},
		Skip{},
		Move{Moves: []GuardedMove{{Mask: True, Src: IntConst(2), Tgt: SVar{Name: "y"}}}},
	)
	// Drop all Skips via rewrite (Seq already did; ensure idempotent).
	count := 0
	RewriteImps(prog, func(i Imp) Imp {
		if _, ok := i.(Move); ok {
			count++
		}
		return i
	})
	if count != 2 {
		t.Fatalf("visited %d moves", count)
	}
}

func TestElemental(t *testing.T) {
	d := DField{Shape: shape.Of(4, 4), Elem: DField{Shape: shape.Of(2), Elem: Scalar{Kind: Float32}}}
	if Elemental(d) != Float32 {
		t.Error("nested dfield elemental")
	}
	if !IsField(d) || IsField(Scalar{Kind: Float64}) {
		t.Error("IsField")
	}
	if FieldShape(Scalar{Kind: Float64}) != nil {
		t.Error("FieldShape of scalar")
	}
}

func randValue(r *rand.Rand, depth int) Value {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return SVar{Name: string(rune('a' + r.Intn(4)))}
		case 1:
			return IntConst(int64(r.Intn(10)))
		case 2:
			return FloatConst(float64(r.Intn(10)) / 2)
		default:
			return ew(string(rune('p' + r.Intn(3))))
		}
	}
	switch r.Intn(3) {
	case 0:
		return Binary{Op: BinOp(r.Intn(int(NeqvOp) + 1)), L: randValue(r, depth-1), R: randValue(r, depth-1)}
	case 1:
		return Unary{Op: UnOp(r.Intn(int(ToInteger32) + 1)), X: randValue(r, depth-1)}
	default:
		return FcnCall{Name: "f", Args: []Value{randValue(r, depth-1)}}
	}
}

// Property: EqualValue is reflexive, and rewriting with the identity
// function preserves equality.
func TestEqualValueReflexiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randValue(r, 3)
		if !EqualValue(v, v) {
			return false
		}
		id := RewriteValues(v, func(x Value) Value { return x })
		return EqualValue(v, id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: printing two structurally different constants yields different
// strings, and printing is deterministic.
func TestPrintDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randValue(r, 3)
		return PrintValue(v) == PrintValue(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualValueDistinguishes(t *testing.T) {
	cases := [][2]Value{
		{SVar{Name: "a"}, SVar{Name: "b"}},
		{IntConst(1), IntConst(2)},
		{IntConst(1), FloatConst(1)},
		{ew("a"), AVar{Name: "a", Field: Subscript{Subs: []Value{IntConst(1)}}}},
		{Binary{Op: Plus, L: IntConst(1), R: IntConst(2)}, Binary{Op: Minus, L: IntConst(1), R: IntConst(2)}},
		{LocalUnder{S: shape.Of(4), Dim: 1}, LocalUnder{S: shape.Of(4), Dim: 2}},
	}
	for _, c := range cases {
		if EqualValue(c[0], c[1]) {
			t.Errorf("EqualValue(%s, %s) = true", PrintValue(c[0]), PrintValue(c[1]))
		}
	}
}

func TestEqualFieldSection(t *testing.T) {
	s1 := AVar{Name: "a", Field: Section{Subs: []Triplet{{Lo: IntConst(1), Hi: IntConst(32), Step: IntConst(2)}, {Full: true}}}}
	s2 := AVar{Name: "a", Field: Section{Subs: []Triplet{{Lo: IntConst(1), Hi: IntConst(32), Step: IntConst(2)}, {Full: true}}}}
	s3 := AVar{Name: "a", Field: Section{Subs: []Triplet{{Lo: IntConst(2), Hi: IntConst(32), Step: IntConst(2)}, {Full: true}}}}
	if !EqualValue(s1, s2) {
		t.Error("identical sections unequal")
	}
	if EqualValue(s1, s3) {
		t.Error("different sections equal")
	}
}

func TestPrintControlConstructs(t *testing.T) {
	prog := Program{Body: Sequentially{List: []Imp{
		IfThenElse{
			Cond: Binary{Op: Greater, L: SVar{Name: "n"}, R: IntConst(0)},
			Then: Move{Moves: []GuardedMove{{Mask: True, Src: IntConst(1), Tgt: SVar{Name: "x"}}}},
			Else: Skip{},
		},
		While{
			Cond: Binary{Op: Less, L: SVar{Name: "i"}, R: IntConst(4)},
			Body: CallImp{Name: "rt_print", Args: []Value{StrConst{S: "hi"}, SVar{Name: "i"}}},
		},
		Concurrently{List: []Imp{Skip{}, Skip{}}},
	}}}
	out := Print(prog)
	for _, want := range []string{
		"PROGRAM(", "IFTHENELSE(BINARY(Greater", "WHILE(BINARY(Less",
		"CALL('rt_print', 'hi', SVAR 'i')", "CONCURRENTLY", "SKIP",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPrintInitializedDecl(t *testing.T) {
	d := WithDecl{
		Decl: Initialized{Name: "n", Type: Scalar{Kind: Integer32}, Init: IntConst(64)},
		Body: Skip{},
	}
	out := Print(d)
	if !strings.Contains(out, "INITIALIZED('n', integer_32, SCALAR(integer_32, '64'))") {
		t.Errorf("got:\n%s", out)
	}
}

func TestPrintSectionTriplets(t *testing.T) {
	av := AVar{Name: "b", Field: Section{Subs: []Triplet{
		{Lo: IntConst(1), Hi: IntConst(32), Step: IntConst(2)},
		{Full: true},
		{Scalar: true, Lo: IntConst(3)},
	}}}
	got := PrintValue(av)
	want := "AVAR('b', section[SCALAR(integer_32, '1'):SCALAR(integer_32, '32'):SCALAR(integer_32, '2'), :, SCALAR(integer_32, '3')])"
	if got != want {
		t.Errorf("got %s", got)
	}
}

func TestWalkImpsVisitsEverything(t *testing.T) {
	inner := Move{Moves: []GuardedMove{{Mask: True, Src: IntConst(1), Tgt: SVar{Name: "x"}}}}
	prog := Program{Body: WithDomain{Name: "a", Shape: shape.Of(4),
		Body: WithDecl{Decl: DeclVar{Name: "x", Type: Scalar{Kind: Integer32}},
			Body: Do{S: shape.SerialOf(4), Body: Concurrently{List: []Imp{inner, While{Cond: True, Body: Skip{}}}}}}}}
	count := 0
	WalkImps(prog, func(Imp) { count++ })
	// Program, WithDomain, WithDecl, Do, Concurrently, Move, While, Skip.
	if count != 8 {
		t.Fatalf("visited %d actions", count)
	}
}

func TestStrConstEquality(t *testing.T) {
	if !EqualValue(StrConst{S: "a"}, StrConst{S: "a"}) || EqualValue(StrConst{S: "a"}, StrConst{S: "b"}) {
		t.Fatal("StrConst equality broken")
	}
}

func TestNamesSetAlgebra(t *testing.T) {
	var s Names
	for _, n := range []string{"q", "a", "m", "a", "q"} {
		s = s.Add(n)
	}
	if got := strings.Join(s, ","); got != "a,m,q" {
		t.Fatalf("Add keeps sorted unique names, got %s", got)
	}
	u := Names{"b", "m"}.Union(s)
	if got := strings.Join(u, ","); got != "a,b,m,q" {
		t.Fatalf("Union = %s", got)
	}
	if !s.Intersects(Names{"b", "m"}) || s.Intersects(Names{"b", "n", "z"}) || s.Intersects(nil) {
		t.Fatal("Intersects wrong")
	}
}
