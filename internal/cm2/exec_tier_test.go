package cm2

// Tests for what a dispatch decides over the routine's one translated
// form: fast-path refusals and how they are counted, the scalar
// broadcast's bounds, record-plane parity with the reference evaluator,
// and concurrent first translation of a shared routine. (The file and
// test names keep "Tier" from when a dispatch also chose between an
// interpreter and two compiled chains.)

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"f90y/internal/nir"
	"f90y/internal/obs"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// refusalCounts runs one dispatch under a fresh collector and returns
// its counters.
func refusalCounts(t *testing.T, r *peac.Routine, n int, st *rt.Store, o ExecOpts) map[string]float64 {
	t.Helper()
	col := obs.NewCollector()
	o.Rec = col
	if err := execEngine(EngineTranslated, r, n, st, o); err != nil {
		t.Fatal(err)
	}
	return col.Counters()
}

// TestExecTierRefusalReasons drives each condition that refuses a
// dispatch the fast path and asserts it is counted under its own name,
// once, and that a dispatch granted the fast path counts nothing.
func TestExecTierRefusalReasons(t *testing.T) {
	const n = 64
	alias := &peac.Routine{
		Name: "Palias",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "a", Reg: 4}, // store target aliases the load
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FSTRV, A: peac.V(1), D: peac.M(4)},
			{Op: peac.FADDV, A: peac.V(0), B: peac.V(1), D: peac.V(2)},
			{Op: peac.FSTRV, A: peac.V(2), D: peac.M(3)},
		},
	}
	ones := func(string, int) float64 { return 1 }
	intStore := parStore(n, []string{"a", "b"}, ones)
	intStore.Arrays["d"] = rt.NewArray(nir.Integer32, shape.Of(n))
	for _, tc := range []struct {
		reason string
		r      *peac.Routine
		st     *rt.Store
		o      ExecOpts
	}{
		{"", fuseRoutine(peac.FADDV, peac.FMULV, true), parStore(n, []string{"a", "b", "d"}, ones), ExecOpts{}},
		{"hazard-alias", alias, parStore(n, []string{"a", "b"}, ones), ExecOpts{}},
		{"numeric-plane", fuseRoutine(peac.FADDV, peac.FMULV, true), parStore(n, []string{"a", "b", "d"}, ones),
			ExecOpts{Num: &rt.Numeric{Mode: rt.NumericRecord}}},
		{"int32-sink", fuseRoutine(peac.FADDV, peac.FMULV, true), intStore, ExecOpts{}},
	} {
		c := refusalCounts(t, fresh(tc.r), n, tc.st, tc.o)
		want := map[string]float64{}
		if tc.reason != "" {
			want["exec/fastpath-refused/"+tc.reason] = 1
		}
		if !reflect.DeepEqual(c, want) {
			t.Errorf("reason %q: counters %v, want %v", tc.reason, c, want)
		}
	}
	// With no recorder attached nothing is counted and nothing breaks.
	if err := execEngine(EngineTranslated, fresh(alias), n, parStore(n, []string{"a", "b"}, ones), ExecOpts{}); err != nil {
		t.Fatal(err)
	}
}

// TestExecTierNumericRecordAcrossSwitch runs one fusable routine with the
// record plane on under the reference evaluator and then twice under
// the translated form — the dispatch that decodes it and one that finds
// the memo, the fast path refused both times: all three must tally the
// same lanes per class and store the same bits.
func TestExecTierNumericRecordAcrossSwitch(t *testing.T) {
	r := fuseRoutine(peac.FDIVV, peac.FMULV, true)
	const n = 300
	run := func(e Engine, r *peac.Routine) (*rt.Numeric, *rt.Store) {
		st := parStore(n, []string{"a", "b", "d"}, func(name string, i int) float64 {
			if name == "a" {
				return float64(i%13) - 6
			}
			return float64(i % 7) // zero divisors -> Inf and NaN lanes
		})
		num := &rt.Numeric{Mode: rt.NumericRecord}
		if err := execEngine(e, r, n, st, ExecOpts{Num: num, Subgrid: 8, PEs: 2048}); err != nil {
			t.Fatal(err)
		}
		return num, st
	}
	wantNum, wantSt := run(EngineReference, fresh(r))
	if wantNum.Total() == 0 {
		t.Fatal("record run tallied no exceptional lanes; test inputs are broken")
	}
	rr := fresh(r)
	for _, label := range []string{"first dispatch", "second dispatch"} {
		num, st := run(EngineTranslated, rr)
		sameTallies(t, label, num, wantNum)
		sameBits(t, label, st, wantSt, "d")
	}
}

// TestExecTierScalarLanes is the bindScalars regression: the broadcast
// fill is bounded by the dispatch (256 lanes for a 256-element dispatch,
// not 4,096), so a pooled workspace keeps another routine's scalar in
// the lanes beyond — and no step may read them.
func TestExecTierScalarLanes(t *testing.T) {
	scaled := func(name string, k float64) *peac.Routine {
		return &peac.Routine{
			Name: name,
			Params: []peac.Param{
				{Kind: peac.ArrayParam, Name: "a", Reg: 2},
				{Kind: peac.ArrayParam, Name: "d", Reg: 4},
				{Kind: peac.ConstParam, Value: k, Reg: 16},
			},
			Body: []peac.Instr{
				{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
				{Op: peac.FMULV, A: peac.V(0), B: peac.S(16), D: peac.V(1)},
				{Op: peac.FSTRV, A: peac.V(1), D: peac.M(4)},
			},
		}
	}
	ramp := func(name string, i int) float64 { return float64(i + 1) }

	// The fill itself: lanes [0, 256) take the new scalar, lane 256 on
	// keeps what the wide dispatch left.
	wide, narrow := decode(scaled("Pwide", 7)), decode(scaled("Pnarrow", 3))
	ws := getWorkspace(peac.NumVRegs, 0, 1)
	scalars := make([]float64, wide.nsreg)
	scalars[16] = 7
	wide.bindScalars(ws, scalars, rt.Grain)
	scalars[16] = 3
	narrow.bindScalars(ws, scalars, 256)
	if b := ws.bcast[0]; b[0] != 3 || b[255] != 3 || b[256] != 7 || b[rt.Grain-1] != 7 {
		t.Errorf("broadcast lanes 0, 255, 256, 4095 = %v %v %v %v, want 3 3 7 7", b[0], b[255], b[256], b[rt.Grain-1])
	}
	putWorkspace(ws)

	// End to end through the pool: whichever workspace the narrow dispatch
	// draws, every lane it reads carries its own scalar.
	st := parStore(rt.Grain, []string{"a", "d"}, ramp)
	if err := execEngine(EngineTranslated, scaled("Pwide", 7), rt.Grain, st, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	st = parStore(256, []string{"a", "d"}, ramp)
	if err := execEngine(EngineTranslated, scaled("Pnarrow", 3), 256, st, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	for i, got := range st.Arrays["d"].Data {
		if want := 3 * float64(i+1); got != want {
			t.Fatalf("d[%d] = %v, want %v (stale broadcast lane read)", i, got, want)
		}
	}
}

// TestExecTierConcurrentFirstDispatch is the race gate for the set-once
// memo: goroutines first-dispatch one shared routine — as two requests
// hitting one cached artifact do — and each may find it untranslated and
// decode it. The forms are equivalent and the last store wins, so
// whatever each ran, every store must equal the serial reference bit for
// bit. Run under -race by `make race`.
func TestExecTierConcurrentFirstDispatch(t *testing.T) {
	for _, n := range []int{300, rt.Grain + 300} {
		mk := func() *rt.Store {
			return parStore(n, []string{"a", "b", "d"}, func(name string, i int) float64 {
				return float64(i%11) + 0.5
			})
		}
		proto := fuseRoutine(peac.FSUBV, peac.FMULV, true)
		ref := mk()
		if err := execEngine(EngineReference, fresh(proto), n, ref, ExecOpts{}); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 20; round++ {
			r := fresh(proto)
			var wg sync.WaitGroup
			stores := make([]*rt.Store, 4)
			errs := make([]error, len(stores))
			for g := range stores {
				stores[g] = mk()
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					o := ExecOpts{}
					if g%2 == 1 {
						// Refused the fast path: both ways of running the
						// shared steps are live at once.
						o.Num = &rt.Numeric{Mode: rt.NumericRecord}
					}
					errs[g] = ExecRoutineOpts(context.Background(), r, shape.Of(n), stores[g], o)
				}(g)
			}
			wg.Wait()
			for g, st := range stores {
				if errs[g] != nil {
					t.Fatal(errs[g])
				}
				sameBits(t, fmt.Sprintf("n=%d round %d goroutine %d", n, round, g), st, ref, "d")
			}
			if p, _ := r.Translated().(*program); p == nil {
				t.Fatalf("n=%d round %d: no memo after four dispatches", n, round)
			}
		}
	}
}
