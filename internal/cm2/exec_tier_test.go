package cm2

// Tests for the tier rule itself (jitFor): which engine a dispatch runs,
// what the decision is counted as, and that nothing observable changes
// at the switch.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"f90y/internal/nir"
	"f90y/internal/obs"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// engineCounts runs one default-engine dispatch under a fresh collector
// and returns the exec/engine and exec/fastpath-refused counters.
func engineCounts(t *testing.T, r *peac.Routine, n int, st *rt.Store, o ExecOpts) map[string]float64 {
	t.Helper()
	col := obs.NewCollector()
	o.Rec = col
	if err := execEngine(EngineTiered, r, n, st, o); err != nil {
		t.Fatal(err)
	}
	return col.Counters()
}

// TestExecTierBoundary pins the rule at its edge: a first dispatch over
// exactly one chunk is interpreted and counted reference-cold, the
// second dispatch of that routine is compiled, and a first dispatch one
// element past the chunk is compiled at once. ExecOpts.JIT skips the
// cold tier. Exactly one engine counter moves per dispatch.
func TestExecTierBoundary(t *testing.T) {
	const cold, compiled = "exec/engine/reference-cold", "exec/engine/compiled"
	one := func(c map[string]float64, want string) {
		t.Helper()
		if c[want] != 1 || c[cold]+c[compiled] != 1 {
			t.Errorf("counters %v, want exactly one %s", c, want)
		}
	}

	r := chunkRoutine()
	one(engineCounts(t, r, chunkSize, chunkStore(chunkSize), ExecOpts{}), cold)
	if r.Tier() != any(jitCold) {
		t.Errorf("after a cold dispatch the memo is %v, want the cold mark", r.Tier())
	}
	one(engineCounts(t, r, chunkSize, chunkStore(chunkSize), ExecOpts{}), compiled)
	one(engineCounts(t, r, 1, chunkStore(1), ExecOpts{}), compiled)

	r = chunkRoutine()
	one(engineCounts(t, r, chunkSize+1, chunkStore(chunkSize+1), ExecOpts{Workers: 2}), compiled)

	r = chunkRoutine()
	one(engineCounts(t, r, 1, chunkStore(1), ExecOpts{JIT: true}), compiled)

	// With no recorder attached nothing is counted and nothing breaks.
	if err := execEngine(EngineTiered, chunkRoutine(), 8, chunkStore(8), ExecOpts{}); err != nil {
		t.Fatal(err)
	}
}

// TestExecTierRefusalReasons drives each condition that sends a compiled
// dispatch down the reference chain and asserts it is counted under its
// own name, once, and that a dispatch the fast chain accepts counts none.
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
		tc.o.JIT = true
		c := engineCounts(t, tc.r, n, tc.st, tc.o)
		refusals := 0.0
		for name, v := range c {
			if strings.HasPrefix(name, "exec/fastpath-refused/") {
				refusals += v
			}
		}
		want := 0.0
		if tc.reason != "" {
			want = 1
		}
		if refusals != want || (tc.reason != "" && c["exec/fastpath-refused/"+tc.reason] != 1) {
			t.Errorf("reason %q: counters %v", tc.reason, c)
		}
	}
}

// TestExecTierNumericRecordAcrossSwitch runs one routine twice under the
// default engine with the record plane on: the first dispatch is the
// cold interpreter, the second the compiled reference chain (the fused
// chain is refused), and both must tally the same lanes per class and
// store the same bits.
func TestExecTierNumericRecordAcrossSwitch(t *testing.T) {
	r := fuseRoutine(peac.FDIVV, peac.FMULV, true)
	const n = 300
	mk := func() *rt.Store {
		return parStore(n, []string{"a", "b", "d"}, func(name string, i int) float64 {
			if name == "a" {
				return float64(i%13) - 6
			}
			return float64(i % 7) // zero divisors -> Inf and NaN lanes
		})
	}
	run := func() (*rt.Numeric, *rt.Store, map[string]float64) {
		st, num := mk(), &rt.Numeric{Mode: rt.NumericRecord}
		c := engineCounts(t, r, n, st, ExecOpts{Num: num, Subgrid: 8, PEs: 2048})
		return num, st, c
	}
	num1, st1, c1 := run()
	num2, st2, c2 := run()
	if c1["exec/engine/reference-cold"] != 1 || c2["exec/engine/compiled"] != 1 ||
		c2["exec/fastpath-refused/"+"numeric-plane"] != 1 {
		t.Fatalf("dispatch 1 counters %v, dispatch 2 counters %v; want cold, then compiled with the fast chain refused", c1, c2)
	}
	if num1.Total() == 0 {
		t.Fatal("record run tallied no exceptional lanes; test inputs are broken")
	}
	sameTallies(t, "second dispatch", num2, num1)
	sameBits(t, "second dispatch", st2, st1, "d")
}

// TestExecTierScalarLanes is the bindScalars regression: the broadcast
// fill is bounded by the dispatch (256 lanes for a 256-element dispatch,
// not 4,096), so a pooled workspace keeps another routine's scalar in
// the lanes beyond — and no kernel may read them.
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
	wide, narrow := compileRoutine(scaled("Pwide", 7)).opt, compileRoutine(scaled("Pnarrow", 3)).opt
	ws := getWorkspace(peac.NumVRegs, 0, 1)
	wide.bindScalars(ws, map[int]float64{16: 7}, chunkSize)
	narrow.bindScalars(ws, map[int]float64{16: 3}, 256)
	if b := ws.bcast[0]; b[0] != 3 || b[255] != 3 || b[256] != 7 || b[chunkSize-1] != 7 {
		t.Errorf("broadcast lanes 0, 255, 256, 4095 = %v %v %v %v, want 3 3 7 7", b[0], b[255], b[256], b[chunkSize-1])
	}
	putWorkspace(ws)

	// End to end through the pool: whichever workspace the narrow dispatch
	// draws, every lane it reads carries its own scalar.
	st := parStore(chunkSize, []string{"a", "d"}, ramp)
	if err := execEngine(EngineCompiled, scaled("Pwide", 7), chunkSize, st, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	st = parStore(256, []string{"a", "d"}, ramp)
	if err := execEngine(EngineCompiled, scaled("Pnarrow", 3), 256, st, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	for i, got := range st.Arrays["d"].Data {
		if want := 3 * float64(i+1); got != want {
			t.Fatalf("d[%d] = %v, want %v (stale broadcast lane read)", i, got, want)
		}
	}
}

// TestExecTierConcurrentFirstDispatch is the race gate for the tier memo
// and the lazily built reference chain: goroutines first-dispatch one
// shared routine — as two requests hitting one cached artifact do — and
// each may find it unseen, cold, or translated. Whatever each picked,
// every store must equal the serial reference bit for bit. Run under
// -race by `make concurrency`.
func TestExecTierConcurrentFirstDispatch(t *testing.T) {
	for _, n := range []int{300, chunkSize + 300} {
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
						// Refuses the fast chain: concurrent lazy builds of
						// the reference chain.
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
			if p, _ := r.Tier().(*jitProgram); p == nil {
				t.Fatalf("n=%d round %d: no memo after four dispatches", n, round)
			}
		}
	}
}
