package pe

import (
	"context"
	"math"
	"testing"

	"f90y/internal/cm2"
	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// The DAG memo keys nodes by value (nodeKey). These tests pin the two
// places where "equal by value" would be the wrong identity.

func vecSyms(names ...string) *lower.SymTab {
	syms := lower.NewSymTab()
	for _, n := range names {
		syms.Define(&lower.Symbol{Name: n, Kind: nir.Float64, Shape: shape.Of(8),
			Type: nir.DField{Shape: shape.Of(8), Elem: nir.Scalar{Kind: nir.Float64}}})
	}
	return syms
}

func everywhere(name string) nir.AVar { return nir.AVar{Name: name, Field: nir.Everywhere{}} }

// runReference executes r over the 8-vector shape under the reference
// evaluator (process-wide pin: not for parallel tests).
func runReference(t *testing.T, r *peac.Routine, st *rt.Store) {
	t.Helper()
	cm2.TestOnlyEngine = cm2.EngineReference
	defer func() { cm2.TestOnlyEngine = cm2.EngineTranslated }()
	if err := cm2.ExecRoutineOpts(context.Background(), r, shape.Of(8), st, cm2.ExecOpts{}); err != nil {
		t.Fatalf("exec:\n%s\n%v", r.Format(), err)
	}
}

// TestSignedZeroConstantsStayApart: 0.0 == -0.0 as floats, so a memo
// keyed on the float would hand the second constant the first one's
// register. The key holds the bit pattern: one block with both compiles
// two constant parameters, and 1/x tells them apart.
func TestSignedZeroConstantsStayApart(t *testing.T) {
	syms := vecSyms("p", "n")
	one := nir.FloatConst(1)
	m := nir.Move{Over: shape.Of(8), Moves: []nir.GuardedMove{
		{Mask: nir.True, Src: nir.Binary{Op: nir.Div, L: one, R: nir.FloatConst(0)}, Tgt: everywhere("p")},
		{Mask: nir.True, Src: nir.Binary{Op: nir.Div, L: one, R: nir.FloatConst(math.Copysign(0, -1))}, Tgt: everywhere("n")},
	}}
	r, err := Compile("P", m, syms, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	var pos, neg int
	for _, p := range r.Params {
		if p.Kind == peac.ConstParam && p.Value == 0 {
			if math.Signbit(p.Value) {
				neg++
			} else {
				pos++
			}
		}
	}
	if pos != 1 || neg != 1 {
		t.Fatalf("zero constants: %d of +0 and %d of -0, want one each:\n%v\n%s", pos, neg, r.Params, r.Format())
	}
	st := rt.NewStore(syms)
	runReference(t, r, st)
	for i := 0; i < 8; i++ {
		if p, n := st.Arrays["p"].Data[i], st.Arrays["n"].Data[i]; !math.IsInf(p, 1) || !math.IsInf(n, -1) {
			t.Fatalf("lane %d: 1/0.0 = %v, 1/-0.0 = %v, want +Inf and -Inf", i, p, n)
		}
	}
}

// TestLoadAfterMaskedStoreSeesSelect: a block reads an array, stores it
// under a mask and reads it again. The second read must be sel(mask,
// val, old) — not the first read's node (the load key carries the store
// version) and not the stored value alone.
func TestLoadAfterMaskedStoreSeesSelect(t *testing.T) {
	syms := vecSyms("a", "b", "m", "before", "after")
	mask := nir.Binary{Op: nir.Greater, L: everywhere("m"), R: nir.FloatConst(0)}
	m := nir.Move{Over: shape.Of(8), Moves: []nir.GuardedMove{
		{Mask: nir.True, Src: everywhere("a"), Tgt: everywhere("before")},
		{Mask: mask, Src: everywhere("b"), Tgt: everywhere("a")},
		{Mask: nir.True, Src: everywhere("a"), Tgt: everywhere("after")},
	}}
	r, err := Compile("P", m, syms, Optimized)
	if err != nil {
		t.Fatal(err)
	}
	selects := 0
	for _, in := range r.Body {
		if in.Op == peac.FSELV {
			selects++
		}
	}
	if selects != 1 {
		t.Fatalf("%d selects, want the one forwarding the masked store:\n%s", selects, r.Format())
	}
	st := rt.NewStore(syms)
	for i := 0; i < 8; i++ {
		st.Arrays["a"].Data[i] = 10 + float64(i)
		st.Arrays["b"].Data[i] = 20 + float64(i)
		st.Arrays["m"].Data[i] = float64(i%2*2 - 1) // -1, 1, -1, ...
	}
	runReference(t, r, st)
	for i := 0; i < 8; i++ {
		want := 10 + float64(i)
		if i%2 == 1 {
			want = 20 + float64(i)
		}
		if got := st.Arrays["before"].Data[i]; got != 10+float64(i) {
			t.Errorf("before[%d] = %v, want the unmodified %v", i, got, 10+float64(i))
		}
		if got := st.Arrays["after"].Data[i]; got != want {
			t.Errorf("after[%d] = %v, want %v", i, got, want)
		}
		if got := st.Arrays["a"].Data[i]; got != want {
			t.Errorf("a[%d] = %v, want %v", i, got, want)
		}
	}
}
