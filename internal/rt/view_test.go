package rt

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"f90y/internal/faults"
	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/shape"
)

// viewTestStore declares user arrays a, b and temporaries t0, t1, t2
// over a 4x3 grid; t0 and t1 are marked as shift views, t2 is a plain
// temporary. a(i,j) = i + 10*j.
func viewTestStore() *Store {
	sh := shape.Of(4, 3)
	syms := lower.NewSymTab()
	for _, name := range []string{"a", "b", "t0", "t1", "t2"} {
		syms.Define(&lower.Symbol{Name: name, Kind: nir.Float64, Shape: sh,
			Temp: name[0] == 't', ShiftView: name == "t0" || name == "t1",
			Type: nir.DField{Shape: sh, Elem: nir.Scalar{Kind: nir.Float64}}})
	}
	syms.Define(&lower.Symbol{Name: "s", Kind: nir.Float64, Type: nir.Scalar{Kind: nir.Float64}})
	st := NewStore(syms)
	for j := 0; j < 3; j++ {
		for i := 0; i < 4; i++ {
			st.Arrays["a"].Data[i+4*j] = float64(i+1) + 10*float64(j+1)
		}
	}
	return st
}

func viewShiftMove(fn, tgt, src string, shift, dim int64) nir.Move {
	args := []nir.Value{nir.AVar{Name: src, Field: nir.Everywhere{}}, nir.IntConst(shift)}
	if fn == "cm_eoshift" {
		args = append(args, nir.FloatConst(-1))
	}
	return nir.Move{Over: shape.Of(4, 3), Moves: []nir.GuardedMove{{Mask: nir.True,
		Src: nir.FcnCall{Name: fn, Args: append(args, nir.IntConst(dim))},
		Tgt: nir.AVar{Name: tgt, Field: nir.Everywhere{}}}}}
}

func mustMove(t *testing.T, c *Comm, m nir.Move) {
	t.Helper()
	if err := c.ExecMove(m); err != nil {
		t.Fatal(err)
	}
}

// TestShiftIntoMarkedTemporaryIsAView: the temporary starts without
// memory, a healthy CSHIFT charges exactly what a copying one does and
// moves nothing, a chain composes onto the root, and what the view
// reads as is what the copy holds.
func TestShiftIntoMarkedTemporaryIsAView(t *testing.T) {
	views, copies := viewTestStore(), viewTestStore()
	if t0 := views.Arrays["t0"]; t0.Data != nil || t0.Size() != 12 || !t0.ShiftView {
		t.Fatalf("marked temporary at allocation: data %v, size %d", t0.Data, t0.Size())
	}
	if t2 := views.Arrays["t2"]; t2.Data == nil || t2.ShiftView {
		t.Fatal("an unmarked temporary must own memory")
	}
	vc := newComm(views)
	cc := newComm(copies)
	cc.Faults = faults.New(&faults.Plan{Seed: 1}, nil) // attached, injects nothing
	for _, c := range []*Comm{vc, cc} {
		mustMove(t, c, viewShiftMove("cm_cshift", "t0", "a", 1, 1))
		mustMove(t, c, viewShiftMove("cm_cshift", "t1", "t0", -1, 2))
	}
	if vc.Cycles != cc.Cycles || !reflect.DeepEqual(vc.ClassCycles, cc.ClassCycles) ||
		!reflect.DeepEqual(vc.LineCycles, cc.LineCycles) || vc.Calls != cc.Calls {
		t.Errorf("a view changed the model: %v %v vs %v %v", vc.Cycles, vc.ClassCycles, cc.Cycles, cc.ClassCycles)
	}
	if views.Arrays["t0"].Data != nil || views.Arrays["t1"].Data != nil || len(views.Materialized) != 0 {
		t.Fatalf("healthy shifts gave the temporaries memory: %v", views.Materialized)
	}
	if copies.Arrays["t0"].Data == nil || copies.Materialized[MaterializedArmed] != 2 {
		t.Fatalf("armed shifts must copy: %v", copies.Materialized)
	}
	src, rot, err := views.Arrays["t1"].View()
	if err != nil || src != views.Arrays["a"] || !reflect.DeepEqual(rot, []int{1, 2}) {
		t.Fatalf("chain resolves to %p rotated %v (%v); want a rotated [1 2]", src, rot, err)
	}
	for _, name := range []string{"t1", "t0"} {
		if err := views.Materialize(views.Arrays[name], MaterializedHostRead); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(views.Arrays[name].Data, copies.Arrays[name].Data) {
			t.Errorf("%s reads as %v, the copy holds %v", name, views.Arrays[name].Data, copies.Arrays[name].Data)
		}
	}
	if views.Materialized[MaterializedHostRead] != 2 {
		t.Errorf("materializations counted: %v", views.Materialized)
	}
}

// TestNonRoutineReadersMaterialize: everything that indexes a
// temporary's Data gives it memory first and says why; an EOSHIFT into
// a marked temporary, and a CSHIFT into an unmarked one, always copy.
func TestNonRoutineReadersMaterialize(t *testing.T) {
	st := viewTestStore()
	c := newComm(st)
	mustMove(t, c, viewShiftMove("cm_cshift", "t0", "a", 1, 1))
	mustMove(t, c, nir.Move{Moves: []nir.GuardedMove{{Mask: nir.True,
		Src: nir.FcnCall{Name: "cm_reduce_sum", Args: []nir.Value{nir.AVar{Name: "t0", Field: nir.Everywhere{}}}},
		Tgt: nir.SVar{Name: "s"}}}})
	if st.Scalars["s"] != 270 || st.Materialized[MaterializedCommRead] != 1 || st.Arrays["t0"].Data == nil {
		t.Errorf("reduction over a view: s = %v, materialized %v", st.Scalars["s"], st.Materialized)
	}

	mustMove(t, c, viewShiftMove("cm_cshift", "t0", "a", 2, 1)) // a view again
	v, _, err := Eval(nir.AVar{Name: "t0", Field: nir.Subscript{Subs: []nir.Value{nir.IntConst(1), nir.IntConst(1)}}}, &EvalCtx{Store: st})
	if err != nil || v != 13 || st.Materialized[MaterializedHostRead] != 1 {
		t.Errorf("host read of a view: %v (%v), materialized %v", v, err, st.Materialized)
	}

	mustMove(t, c, viewShiftMove("cm_cshift", "t0", "a", 1, 1))
	mustMove(t, c, viewShiftMove("cm_eoshift", "t1", "t0", 1, 1)) // reads a view, fills a marked temporary
	if st.Arrays["t1"].Data == nil || st.Arrays["t1"].Data[3] != -1 || st.Arrays["t1"].Data[0] != 13 {
		t.Errorf("eoshift into a marked temporary: %v", st.Arrays["t1"].Data)
	}
	mustMove(t, c, viewShiftMove("cm_cshift", "t2", "a", 1, 1))
	if st.Arrays["t2"].Data[0] != 12 {
		t.Errorf("cshift into an unmarked temporary: %v", st.Arrays["t2"].Data)
	}
}

// TestStaleViewIsAnError: every writer moves its array to the next
// generation, and a view taken before that cannot be read, bound or
// materialized afterwards; shifting again makes a fresh one.
func TestStaleViewIsAnError(t *testing.T) {
	for name, write := range map[string]func(st *Store, c *Comm) error{
		"comm commit": func(st *Store, c *Comm) error { return c.ExecMove(viewShiftMove("cm_cshift", "a", "b", 1, 1)) },
		"general move": func(st *Store, c *Comm) error {
			return c.ExecMove(nir.Move{Over: shape.Of(4, 3), Moves: []nir.GuardedMove{{Mask: nir.True,
				Src: nir.AVar{Name: "b", Field: nir.Everywhere{}}, Tgt: nir.AVar{Name: "a", Field: nir.Everywhere{}}}}})
		},
		"explicit": func(st *Store, c *Comm) error { st.Arrays["a"].Wrote(); return nil },
	} {
		st := viewTestStore()
		c := newComm(st)
		mustMove(t, c, viewShiftMove("cm_cshift", "t0", "a", 1, 1))
		if err := write(st, c); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Arrays["t0"].View(); !errors.Is(err, ErrStaleView) || !strings.Contains(err.Error(), `"a"`) {
			t.Errorf("%s: View() = %v, want ErrStaleView naming a", name, err)
		}
		if err := st.Materialize(st.Arrays["t0"], MaterializedHostRead); !errors.Is(err, ErrStaleView) {
			t.Errorf("%s: Materialize = %v, want ErrStaleView", name, err)
		}
		if err := c.ExecMove(viewShiftMove("cm_cshift", "t1", "t0", 1, 1)); !errors.Is(err, ErrStaleView) {
			t.Errorf("%s: shift of a stale view = %v, want ErrStaleView", name, err)
		}
		mustMove(t, c, viewShiftMove("cm_cshift", "t0", "a", 1, 1))
		if _, _, err := st.Arrays["t0"].View(); err != nil {
			t.Errorf("%s: a fresh shift is still stale: %v", name, err)
		}
	}
}

// TestCheckpointViewRecords: a view travels as a header entry with no
// payload and is restored as a view; a temporary nothing wrote is left
// out; a payload for a marked temporary (an armed run's, or a file
// written before views existed) gives it memory back.
func TestCheckpointViewRecords(t *testing.T) {
	st := viewTestStore()
	c := newComm(st)
	mustMove(t, c, viewShiftMove("cm_cshift", "t0", "a", -1, 2))
	ck := st.Checkpoint()
	if ca := ck.Arrays["t0"]; ca.ViewOf != "a" || !reflect.DeepEqual(ca.Rot, []int{0, 2}) || ca.Data != nil {
		t.Fatalf("snapshot of a view: %+v", ca)
	}
	if _, ok := ck.Arrays["t1"]; ok {
		t.Fatal("a temporary nothing wrote is in the snapshot")
	}
	file := mustEncode(t, ck)
	head, _, _ := bytes.Cut(file, []byte{'\n'})
	if !bytes.Contains(head, []byte(`{"name":"t0","kind":3,"ext":[4,3],"lo":[1,1],"view_of":"a","rot":[0,2],"n":0}`)) {
		t.Errorf("header entry of a view: %s", head)
	}
	// Three arrays of 12 values carry payload: a, b, t2.
	if want := len(head) + 1 + 8*(1+3*12) + len(sealCkpt(nil)); len(file) != want {
		t.Errorf("file is %d bytes, want %d: a view must add no payload", len(file), want)
	}
	loaded, err := decodeCheckpoint(file)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, loaded) {
		t.Error("snapshot changed across encode and decode")
	}

	fresh := viewTestStore()
	fresh.Arrays["a"].Wrote() // generations are process state: the view adopts the source's
	if err := loaded.ApplyStore(fresh); err != nil {
		t.Fatal(err)
	}
	src, rot, err := fresh.Arrays["t0"].View()
	if err != nil || src != fresh.Arrays["a"] || !reflect.DeepEqual(rot, []int{0, 2}) || fresh.Arrays["t0"].Data != nil {
		t.Fatalf("restored view: %p rotated %v (%v)", src, rot, err)
	}
	if fresh.Arrays["t1"].Data != nil {
		t.Error("an absent temporary was given memory")
	}

	// A payload for the marked temporary restores its memory, and the
	// next healthy shift makes it a view again.
	armed := viewTestStore()
	ac := newComm(armed)
	ac.Faults = faults.New(&faults.Plan{Seed: 1}, nil)
	mustMove(t, ac, viewShiftMove("cm_cshift", "t0", "a", -1, 2))
	if err := armed.Checkpoint().ApplyStore(fresh); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Arrays["t0"].Data, armed.Arrays["t0"].Data) {
		t.Errorf("payload restored as %v, want %v", fresh.Arrays["t0"].Data, armed.Arrays["t0"].Data)
	}
	mustMove(t, newComm(fresh), viewShiftMove("cm_cshift", "t0", "a", 1, 1))
	if fresh.Arrays["t0"].Data != nil {
		t.Error("a healthy shift into restored memory did not make a view")
	}
}

// TestApplyStoreRejectsBadViews: a view record that does not fit the
// program is ErrCkptCorrupt at ApplyStore, never a panic and never a
// half-made view.
func TestApplyStoreRejectsBadViews(t *testing.T) {
	view := func(of string, rot ...int) CkptArray {
		return CkptArray{Kind: nir.Float64, Ext: []int{4, 3}, Lo: []int{1, 1}, ViewOf: of, Rot: rot}
	}
	for name, arrays := range map[string]map[string]CkptArray{
		"missing source":        {"t0": view("nope", 0, 1)},
		"view of itself":        {"t0": view("t0", 0, 1)},
		"view of a view":        {"t0": view("t1", 0, 1), "t1": view("a", 0, 1)},
		"source without memory": {"t0": view("t1", 0, 1)},
		"rank mismatch":         {"t0": view("a", 1)},
		"rotation out of range": {"t0": view("a", 4, 0)},
		"negative rotation":     {"t0": view("a", 0, -1)},
		"unmarked array":        {"t2": view("a", 0, 1)},
		"user array":            {"b": view("a", 0, 1)},
		"view with payload": {"t0": {Kind: nir.Float64, Ext: []int{4, 3}, Lo: []int{1, 1}, ViewOf: "a", Rot: []int{0, 1},
			Data: make([]float64, 12)}},
	} {
		st := viewTestStore()
		ck := &Checkpoint{Schema: CkptSchema, Arrays: arrays}
		if err := ck.ApplyStore(st); !errors.Is(err, ErrCkptCorrupt) {
			t.Errorf("%s: ApplyStore = %v, want ErrCkptCorrupt", name, err)
		}
	}
	// Extent mismatch: the source has the rank and not the extents.
	st := viewTestStore()
	st.Arrays["a"] = NewArray(nir.Float64, shape.Of(3, 4))
	ck := &Checkpoint{Schema: CkptSchema, Arrays: map[string]CkptArray{"t0": view("a", 0, 1)}}
	if err := ck.ApplyStore(st); !errors.Is(err, ErrCkptCorrupt) {
		t.Errorf("extent mismatch: ApplyStore = %v, want ErrCkptCorrupt", err)
	}
}

// TestSymbolFlagSurvivesGob: the disk artifact cache moves the symbol
// table through gob; a restored program allocates the same views.
func TestSymbolFlagSurvivesGob(t *testing.T) {
	st := viewTestStore()
	syms := lower.NewSymTab()
	sh := shape.Of(4, 3)
	syms.Define(&lower.Symbol{Name: "t0", Kind: nir.Float64, Shape: sh, Temp: true, ShiftView: true,
		Type: nir.DField{Shape: sh, Elem: nir.Scalar{Kind: nir.Float64}}})
	data, err := syms.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	back := lower.NewSymTab()
	if err := back.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	if sym, ok := back.Lookup("t0"); !ok || !sym.ShiftView || !sym.Temp {
		t.Fatalf("symbol after gob: %+v", sym)
	}
	if a := NewStore(back).Arrays["t0"]; a.Data != nil || !a.ShiftView || a.Size() != st.Arrays["t0"].Size() {
		t.Errorf("store from the restored table: data %v, marked %v", a.Data != nil, a.ShiftView)
	}
}
