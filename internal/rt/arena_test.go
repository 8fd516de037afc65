package rt

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/shape"
)

// arenaTestStore declares a, b and the marked shift temporary t0 over a
// 40x30 grid — 1,200 elements, so every array is an arena slab.
func arenaTestStore() *Store {
	sh := shape.Of(40, 30)
	syms := lower.NewSymTab()
	for _, name := range []string{"a", "b", "t0"} {
		syms.Define(&lower.Symbol{Name: name, Kind: nir.Float64, Shape: sh, Temp: name == "t0", ShiftView: name == "t0",
			Type: nir.DField{Shape: sh, Elem: nir.Scalar{Kind: nir.Float64}}})
	}
	return NewStore(syms)
}

// lent is how many slabs the arena has out: asked for and not handed back.
func lent() int64 {
	st := ReadArenaStats()
	return st.Gets - st.Puts
}

// TestArenaSlabIsClearedOnReuse: a returned slab comes back for the same
// length only, zeroed whatever it held; arrays under arenaMin never pass
// through the arena.
func TestArenaSlabIsClearedOnReuse(t *testing.T) {
	const n = 3 * arenaMin
	s, _ := getSlab(n)
	for i := range s {
		s[i] = math.NaN()
	}
	s[7] = -7.25
	before := ReadArenaStats()
	putSlab(s)
	if other, reused := getSlab(n + 1); reused || len(other) != n+1 {
		t.Fatalf("a slab of another length: reused %v, len %d", reused, len(other))
	}
	again, reused := getSlab(n)
	if !reused || &again[0] != &s[0] {
		t.Fatal("a returned slab was not lent again for its own length")
	}
	for i, v := range again {
		if math.Float64bits(v) != 0 {
			t.Fatalf("reused slab[%d] = %v, want +0", i, v)
		}
	}
	after := ReadArenaStats()
	if after.Gets-before.Gets != 2 || after.Reuses-before.Reuses != 1 || after.Puts-before.Puts != 1 || after.HeldBytes != before.HeldBytes {
		t.Errorf("counters moved %+v -> %+v, want 2 gets, 1 reuse, 1 put, held unchanged", before, after)
	}

	small, reused := getSlab(arenaMin - 1)
	putSlab(small)
	if again, _ := getSlab(arenaMin - 1); reused || &again[0] == &small[0] || ReadArenaStats() != after {
		t.Error("an array under arenaMin went through the arena")
	}
}

// TestStoreReleaseIsIdempotentAndLoud: Release hands each slab back
// once, a second Release hands back nothing, and whatever then reads the
// store gets an error — never the slab's next borrower's numbers.
func TestStoreReleaseIsIdempotentAndLoud(t *testing.T) {
	st := arenaTestStore()
	a := st.Arrays["a"]
	a.Data[0] = 42
	before := ReadArenaStats()
	st.Release()
	st.Release()
	if after := ReadArenaStats(); after.Puts-before.Puts != 2 {
		t.Errorf("two Releases of a store with two slabs made %d puts", after.Puts-before.Puts)
	}
	if a.Data != nil || len(st.Arrays) != 0 {
		t.Fatalf("released store still has arrays (%d) or data (%v)", len(st.Arrays), a.Data != nil)
	}
	ctx := &EvalCtx{Store: st}
	if _, _, err := Eval(nir.AVar{Name: "a", Field: nir.Subscript{Subs: []nir.Value{nir.IntConst(1), nir.IntConst(1)}}}, ctx); !errors.Is(err, ErrUndefined) {
		t.Errorf("element read of a released store: %v, want ErrUndefined", err)
	}
	if err := newComm(st).ExecMove(viewShiftMove("cm_cshift", "b", "a", 1, 1)); !errors.Is(err, ErrUndefined) {
		t.Errorf("shift over a released store: %v, want ErrUndefined", err)
	}
}

// TestArenaBalance: every way a store comes by a slab — allocation, a
// view materialized across two rotated axes (one intermediate), a view
// overwritten by a copying shift, a materialized temporary turned back
// into a view, a snapshot's copies, a resumed temporary — hands it back
// exactly once.
func TestArenaBalance(t *testing.T) {
	out := lent()
	st := arenaTestStore()
	c := newComm(st)
	shift := func(fn, tgt, src string, by, dim int64) {
		t.Helper()
		m := viewShiftMove(fn, tgt, src, by, dim)
		m.Over = shape.Of(40, 30)
		mustMove(t, c, m)
	}
	shift("cm_cshift", "t0", "a", 1, 1)
	shift("cm_cshift", "t0", "t0", 1, 2) // a view rotated on both axes
	t0 := st.Arrays["t0"]
	if err := st.Materialize(t0, MaterializedHostRead); err != nil || t0.Data == nil {
		t.Fatalf("materialize: %v", err)
	}
	shift("cm_cshift", "t0", "a", 2, 1) // a view again: its memory goes back
	if t0.Data != nil {
		t.Fatal("a healthy shift into a materialized temporary kept its memory")
	}
	shift("cm_eoshift", "t0", "a", 1, 1) // a copying shift gives it memory once more
	ck := st.Checkpoint()
	resumed := arenaTestStore()
	if err := ck.ApplyStore(resumed); err != nil || resumed.Arrays["t0"].Data == nil {
		t.Fatalf("resume: %v", err)
	}
	if st.ArenaGets != 2+2+1+3 || resumed.ArenaGets != 2+1 {
		t.Errorf("the stores asked for %d and %d slabs, want 8 and 3", st.ArenaGets, resumed.ArenaGets)
	}
	ck.Release()
	st.Release()
	resumed.Release()
	if got := lent(); got != out {
		t.Errorf("%d slabs still lent after every Release", got-out)
	}
}

// TestArenaAgesOut: a slab nothing draws for a whole collection cycle is
// dropped at the next Release; no size bounds the arena, the collector
// does.
func TestArenaAgesOut(t *testing.T) {
	const n = 5 * arenaMin
	s, _ := getSlab(n)
	(&Store{}).Release() // start a generation
	held := ReadArenaStats().HeldBytes
	putSlab(s)
	for i := 0; i < 2; i++ {
		if got := ReadArenaStats().HeldBytes; got != held+8*n {
			t.Fatalf("after %d cycles the arena holds %d bytes, want %d", i, got, held+8*n)
		}
		runtime.GC()
		(&Store{}).Release()
	}
	if _, reused := getSlab(n); reused || ReadArenaStats().HeldBytes > held {
		t.Errorf("a slab idle for two collection cycles is still held (%d bytes)", ReadArenaStats().HeldBytes)
	}
}
