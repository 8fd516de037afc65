package cm2

// Differential tests for the translated form (jit.go): every test runs
// the reference evaluator (ref.go) as the baseline and asserts the
// translated form — first dispatch (decode and run) and second (memo) —
// is bit-identical: stores compared by Float64bits, error strings byte
// for byte, numeric-plane tallies count for count, across chunk
// boundaries and worker counts. The chained-memory regressions from
// exec_par_test.go are re-run against the translated form, which has its
// own per-position fetch buffers to get wrong.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"f90y/internal/nir"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// selections are the two evaluators every differential covers.
var selections = []struct {
	name string
	e    Engine
}{
	{"reference", EngineReference},
	{"translated", EngineTranslated},
}

// execEngine runs one dispatch with the engine choice pinned. The pin is
// process-wide (TestOnlyEngine), so these tests never run in parallel.
func execEngine(e Engine, r *peac.Routine, n int, st *rt.Store, o ExecOpts) error {
	TestOnlyEngine = e
	defer func() { TestOnlyEngine = EngineTranslated }()
	return ExecRoutineOpts(context.Background(), r, shape.Of(n), st, o)
}

// fresh returns r with no memo: a routine no dispatch has seen, so its
// next dispatch translates however often the original ran.
func fresh(r *peac.Routine) *peac.Routine {
	return &peac.Routine{Name: r.Name, Params: r.Params, Body: r.Body,
		SpillSlots: r.SpillSlots, Pos: r.Pos, Dist: r.Dist}
}

// sameBits fails unless every named array is bit-identical in both stores.
func sameBits(t *testing.T, label string, got, want *rt.Store, arrays ...string) {
	t.Helper()
	for _, name := range arrays {
		for i, w := range want.Arrays[name].Data {
			g := got.Arrays[name].Data[i]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: %s[%d] = %v, want %v (not bit-exact)", label, name, i, g, w)
			}
		}
	}
}

// sameTallies fails unless the two numeric planes recorded the same
// per-class NaN and Inf counts.
func sameTallies(t *testing.T, label string, got, want *rt.Numeric) {
	t.Helper()
	for cl, c := range want.NaN {
		if got.NaN[cl] != c {
			t.Errorf("%s: NaN[%s] = %d, want %d", label, cl, got.NaN[cl], c)
		}
	}
	for cl, c := range want.Inf {
		if got.Inf[cl] != c {
			t.Errorf("%s: Inf[%s] = %d, want %d", label, cl, got.Inf[cl], c)
		}
	}
	if got.Total() != want.Total() {
		t.Errorf("%s: %d exceptional lanes tallied, want %d", label, got.Total(), want.Total())
	}
}

// differential runs r over n elements under both evaluators and every
// worker count — twice per routine instance, so the translated form is
// seen on the dispatch that decodes it and on one that finds the memo —
// and asserts the named arrays match the serial reference run bit for
// bit.
func differential(t *testing.T, label string, r *peac.Routine, n int, mk func() *rt.Store, workers []int, arrays ...string) {
	t.Helper()
	ref := mk()
	if err := execEngine(EngineReference, fresh(r), n, ref, ExecOpts{}); err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	for _, sel := range selections {
		for _, w := range workers {
			rr := fresh(r)
			for pass := 1; pass <= 2; pass++ {
				st := mk()
				if err := execEngine(sel.e, rr, n, st, ExecOpts{Workers: w}); err != nil {
					t.Fatalf("%s: %s workers=%d dispatch %d: %v", label, sel.name, w, pass, err)
				}
				sameBits(t, label+": "+sel.name, st, ref, arrays...)
			}
		}
	}
}

// TestExecJITChunkBoundaries drives every engine selection across the
// chunk-boundary cases (n = 1, rt.Grain-1, rt.Grain, rt.Grain+1, the
// fan-out boundary 2·rt.Grain and one past it, plus a many-chunk count)
// and worker counts, asserting bit-exact agreement with the serial
// reference evaluator.
func TestExecJITChunkBoundaries(t *testing.T) {
	for _, n := range []int{1, rt.Grain - 1, rt.Grain, rt.Grain + 1, 2 * rt.Grain, 2*rt.Grain + 1, 3*rt.Grain + 5} {
		differential(t, fmt.Sprintf("n=%d", n), chunkRoutine(), n, func() *rt.Store { return chunkStore(n) },
			[]int{1, 2, 8, -1}, "d")
	}
}

// TestExecJITChainedMemPositions re-runs the chained-memory regressions
// against the translated form: distinct Mem streams in A and B, in A, B,
// and C, and an FSTRV with chained source and mask must each read their
// own lanes through the per-position fetch buffers.
func TestExecJITChainedMemPositions(t *testing.T) {
	cases := []struct {
		name string
		r    *peac.Routine
		arrs []string
	}{
		{
			name: "A+B",
			r: &peac.Routine{
				Name: "PchainAB",
				Params: []peac.Param{
					{Kind: peac.ArrayParam, Name: "a", Reg: 2},
					{Kind: peac.ArrayParam, Name: "b", Reg: 3},
					{Kind: peac.ArrayParam, Name: "d", Reg: 4},
				},
				Body: []peac.Instr{
					{Op: peac.FADDV, A: peac.M(2), B: peac.M(3), D: peac.V(0)},
					{Op: peac.FSTRV, A: peac.V(0), D: peac.M(4)},
				},
			},
			arrs: []string{"a", "b", "d"},
		},
		{
			name: "A+B+C",
			r: &peac.Routine{
				Name: "PchainABC",
				Params: []peac.Param{
					{Kind: peac.ArrayParam, Name: "a", Reg: 2},
					{Kind: peac.ArrayParam, Name: "b", Reg: 3},
					{Kind: peac.ArrayParam, Name: "c", Reg: 5},
					{Kind: peac.ArrayParam, Name: "d", Reg: 4},
				},
				Body: []peac.Instr{
					{Op: peac.FMADDV, A: peac.M(2), B: peac.M(3), C: peac.M(5), D: peac.V(0)},
					{Op: peac.FSTRV, A: peac.V(0), D: peac.M(4)},
				},
			},
			arrs: []string{"a", "b", "c", "d"},
		},
		{
			name: "store-src+mask",
			r: &peac.Routine{
				Name: "PchainStore",
				Params: []peac.Param{
					{Kind: peac.ArrayParam, Name: "a", Reg: 2},
					{Kind: peac.ArrayParam, Name: "b", Reg: 3},
					{Kind: peac.ArrayParam, Name: "d", Reg: 4},
				},
				Body: []peac.Instr{
					{Op: peac.FSTRV, A: peac.M(2), C: peac.M(3), D: peac.M(4)},
				},
			},
			arrs: []string{"a", "b", "d"},
		},
	}
	const n = 2*rt.Grain + 9
	fill := func(name string, i int) float64 {
		switch name {
		case "a":
			return 1 + float64(i%23)
		case "b":
			return float64(i % 3) // doubles as the store mask
		case "c":
			return 100 + float64(i%7)
		}
		return -1
	}
	for _, tc := range cases {
		differential(t, tc.name, tc.r, n, func() *rt.Store { return parStore(n, tc.arrs, fill) }, []int{1}, "d")
	}
}

// TestExecJITIntegerStoreKind asserts the translated store step applies
// the array's kind semantics: stores into an Integer32 array truncate,
// masked and unmasked, exactly like the reference evaluator's StoreVal.
func TestExecJITIntegerStoreKind(t *testing.T) {
	r := &peac.Routine{
		Name: "Pintstore",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
			{Kind: peac.ConstParam, Value: 2, Reg: 16},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FDIVV, A: peac.V(0), B: peac.S(16), D: peac.V(1)}, // i/2: halves are fractional
			{Op: peac.FSTRV, A: peac.V(1), D: peac.M(4)},
		},
	}
	const n = 12
	mk := func() *rt.Store {
		st := parStore(n, []string{"a"}, func(_ string, i int) float64 { return float64(i) })
		di := rt.NewArray(nir.Integer32, shape.Of(n))
		st.Arrays["d"] = di
		return st
	}
	differential(t, "intstore", r, n, mk, []int{1}, "d")
	st := mk()
	if err := execEngine(EngineTranslated, fresh(r), n, st, ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	for i, got := range st.Arrays["d"].Data {
		if got != math.Trunc(got) {
			t.Fatalf("d[%d] = %v is not an integer (integer store must truncate)", i, got)
		}
	}
}

// TestExecJITErrorStrings drives every class of executor error through
// both engines and asserts the strings are byte-identical: the uniform
// unbound-pointer taxonomy (load, chained load, store, and the distinct
// store-to-coordinate case), the data-dependent integer div/mod faults,
// and the unimplemented-opcode backstop.
func TestExecJITErrorStrings(t *testing.T) {
	baseParams := []peac.Param{
		{Kind: peac.ArrayParam, Name: "a", Reg: 2},
		{Kind: peac.ArrayParam, Name: "d", Reg: 4},
		{Kind: peac.CoordParam, Dim: 1, Reg: 5},
	}
	cases := []struct {
		name   string
		body   []peac.Instr
		params []peac.Param // nil: baseParams
		want   string       // the exact error, when the case pins it
	}{
		{"load-unbound", []peac.Instr{
			{Op: peac.FLODV, A: peac.M(9), D: peac.V(0)},
		}, nil, ""},
		{"chained-unbound-B", []peac.Instr{
			{Op: peac.FADDV, A: peac.M(2), B: peac.M(9), D: peac.V(0)},
		}, nil, ""},
		{"chained-unbound-C-of-2src", []peac.Instr{
			// The reference evaluator resolves C even for a two-source op; the
			// translated form must fault identically.
			{Op: peac.FADDV, A: peac.V(0), B: peac.V(1), C: peac.M(9), D: peac.V(0)},
		}, nil, ""},
		{"store-unbound", []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FSTRV, A: peac.V(0), D: peac.M(9)},
		}, nil, ""},
		{"store-unbound-then-read", []peac.Instr{
			// The elidable load is read after a store to a pointer no
			// parameter binds, numbered above every bound one: the planner
			// must not take that store for an aliasing hazard (it once
			// indexed the dispatch's streams by it and panicked).
			{Op: peac.FLODV, A: peac.M(0), D: peac.V(0)},
			{Op: peac.FSTRV, A: peac.V(0), D: peac.M(5)},
			{Op: peac.FADDV, A: peac.V(0), B: peac.V(0), D: peac.V(1)},
			{Op: peac.FSTRV, A: peac.V(1), D: peac.M(0)},
		}, []peac.Param{{Kind: peac.ArrayParam, Name: "a", Reg: 0}},
			"cm2: routine Perr_store-unbound-then-read: store to unbound pointer aP5"},
		{"store-coordinate", []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FSTRV, A: peac.V(0), D: peac.M(5)},
		}, nil, ""},
		{"int-div-zero", []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FDIVV, A: peac.V(0), B: peac.V(1), D: peac.V(2), IntOp: true},
		}, nil, ""},
		{"int-mod-zero", []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FMODV, A: peac.V(0), B: peac.V(1), D: peac.V(2), IntOp: true},
		}, nil, ""},
		{"unimplemented-opcode", []peac.Instr{
			{Op: peac.Opcode(250), A: peac.V(0), B: peac.V(1), D: peac.V(2)},
		}, nil, ""},
	}
	const n = 16
	for _, tc := range cases {
		r := &peac.Routine{Name: "Perr_" + tc.name, Params: baseParams, Body: tc.body}
		if tc.params != nil {
			r.Params = tc.params
		}
		mk := func() *rt.Store {
			return parStore(n, []string{"a", "d"}, func(name string, i int) float64 { return 1 })
		}
		ref := execEngine(EngineReference, fresh(r), n, mk(), ExecOpts{})
		if ref == nil {
			t.Fatalf("%s: reference evaluator did not error", tc.name)
		}
		if tc.want != "" && ref.Error() != tc.want {
			t.Errorf("%s: reference error %q, want %q", tc.name, ref, tc.want)
		}
		// The user of a failing loop body must see one error string on
		// every dispatch, whichever evaluator and worker count ran it.
		for _, sel := range selections {
			for _, workers := range []int{1, 2, -1} {
				rr := fresh(r)
				for pass := 1; pass <= 2; pass++ {
					got := execEngine(sel.e, rr, n, mk(), ExecOpts{Workers: workers})
					if got == nil || got.Error() != ref.Error() {
						t.Errorf("%s: %s workers=%d dispatch %d: error %q, want %q", tc.name, sel.name, workers, pass, got, ref)
					}
				}
			}
		}
	}
}

// TestExecJITTrapIdentical plants exceptional lanes in two chunks and
// asserts the translated form traps with the reference evaluator's exact error
// — same instruction, element, and PE attribution — for every worker
// count.
func TestExecJITTrapIdentical(t *testing.T) {
	r := &peac.Routine{
		Name: "Pjittrap",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FDIVV, A: peac.V(0), B: peac.V(1), D: peac.V(2)},
			{Op: peac.FSTRV, A: peac.V(2), D: peac.M(4)},
		},
	}
	n := 3 * rt.Grain
	mk := func() *rt.Store {
		return parStore(n, []string{"a", "b", "d"}, func(name string, i int) float64 {
			if name == "b" {
				if i == rt.Grain+55 || i == 2*rt.Grain+3 {
					return 0
				}
				return 2
			}
			return 1
		})
	}
	run := func(e Engine, workers int) error {
		num := &rt.Numeric{Mode: rt.NumericTrap}
		return execEngine(e, fresh(r), n, mk(), ExecOpts{Num: num, Subgrid: 8, PEs: 2048, Workers: workers})
	}
	ref := run(EngineReference, 1)
	if ref == nil || !errors.Is(ref, rt.ErrNumeric) {
		t.Fatalf("reference trap = %v, want rt.ErrNumeric", ref)
	}
	for _, sel := range selections {
		for _, workers := range []int{1, 2, 8} {
			got := run(sel.e, workers)
			if got == nil || got.Error() != ref.Error() {
				t.Errorf("%s workers=%d: trap %q, want %q", sel.name, workers, got, ref)
			}
			if !errors.Is(got, rt.ErrNumeric) {
				t.Errorf("%s workers=%d: trap does not wrap rt.ErrNumeric", sel.name, workers)
			}
		}
	}
}

// TestExecJITNumericRecordParity asserts record-mode tallies from the
// translated form match the reference evaluator's exactly, per class, across
// worker counts.
func TestExecJITNumericRecordParity(t *testing.T) {
	r := &peac.Routine{
		Name: "Pjitnum",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FDIVV, A: peac.V(0), B: peac.V(1), D: peac.V(2)},
			{Op: peac.FLOGV, A: peac.V(1), D: peac.V(1)},
			{Op: peac.FSTRV, A: peac.V(2), D: peac.M(4)},
		},
	}
	n := 2*rt.Grain + 77
	mk := func() *rt.Store {
		return parStore(n, []string{"a", "b", "d"}, func(name string, i int) float64 {
			switch name {
			case "a":
				if i%89 == 0 {
					return 0
				}
				return 1
			case "b":
				if i%11 == 0 {
					return 0
				}
				return 2
			}
			return 0
		})
	}
	run := func(e Engine, workers int) *rt.Numeric {
		num := &rt.Numeric{Mode: rt.NumericRecord}
		if err := execEngine(e, fresh(r), n, mk(), ExecOpts{Num: num, Subgrid: 8, PEs: 2048, Workers: workers}); err != nil {
			t.Fatalf("engine=%d workers=%d: %v", e, workers, err)
		}
		return num
	}
	ref := run(EngineReference, 1)
	if ref.Total() == 0 {
		t.Fatal("record run tallied no exceptional lanes; test inputs are broken")
	}
	for _, sel := range selections {
		for _, workers := range []int{1, 4, -1} {
			sameTallies(t, fmt.Sprintf("%s workers=%d", sel.name, workers), run(sel.e, workers), ref)
		}
	}
}

// TestExecJITRecordMergeOnFailure is the executor-bugfix regression: a
// FAILING parallel dispatch must still merge the per-worker numeric
// record planes — before the fix the error path returned without
// merging, silently dropping every tally the workers accumulated. The
// failure is planted in the LAST chunk, so the monotone chunk-claim
// order guarantees every earlier chunk is claimed (and runs to
// completion) before the failing chunk cancels the pool: serial and
// parallel tallies are deterministic and must be equal, under every
// engine selection.
func TestExecJITRecordMergeOnFailure(t *testing.T) {
	r := &peac.Routine{
		Name: "Pfail",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "c", Reg: 5},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FDIVV, A: peac.V(0), B: peac.V(1), D: peac.V(2)}, // b==0 lanes -> Inf, recorded
			{Op: peac.FLODV, A: peac.M(5), D: peac.V(3)},
			{Op: peac.FDIVV, A: peac.V(0), B: peac.V(3), D: peac.V(4), IntOp: true}, // c==0 -> error
			{Op: peac.FSTRV, A: peac.V(2), D: peac.M(4)},
		},
	}
	n := 3*rt.Grain + 17
	mk := func() *rt.Store {
		return parStore(n, []string{"a", "b", "c", "d"}, func(name string, i int) float64 {
			switch name {
			case "a":
				return 1
			case "b":
				if i%31 == 0 {
					return 0 // Inf lanes sprinkled through every chunk
				}
				return 2
			case "c":
				if i == n-5 {
					return 0 // the only failure, in the last chunk
				}
				return 1
			}
			return 0
		})
	}
	run := func(e Engine, workers int) (*rt.Numeric, error) {
		num := &rt.Numeric{Mode: rt.NumericRecord}
		err := execEngine(e, fresh(r), n, mk(), ExecOpts{Num: num, Subgrid: 8, PEs: 2048, Workers: workers})
		return num, err
	}
	refNum, refErr := run(EngineReference, 1)
	if refErr == nil {
		t.Fatal("serial run did not fail; test inputs are broken")
	}
	if refNum.Total() == 0 {
		t.Fatal("serial failing run recorded no tallies; test inputs are broken")
	}
	for _, sel := range selections {
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s workers=%d", sel.name, workers)
			num, err := run(sel.e, workers)
			if err == nil || err.Error() != refErr.Error() {
				t.Errorf("%s: err %q, want %q", label, err, refErr)
			}
			// A shortfall here is record planes dropped on the error path.
			sameTallies(t, label, num, refNum)
		}
	}
}

// TestExecJITScalarAndNoOperand asserts scalar broadcast (SReg, Const)
// and missing-operand resolution match the reference evaluator: a NoOperand
// source reads broadcast zeros in both engines.
func TestExecJITScalarAndNoOperand(t *testing.T) {
	r := &peac.Routine{
		Name: "Pscal",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
			{Kind: peac.ScalarParam, Name: "s", Reg: 17},
			{Kind: peac.ConstParam, Value: 2.5, Reg: 16},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FMULV, A: peac.V(0), B: peac.S(17), D: peac.V(1)},
			// B is NoOperand: the reference evaluator broadcasts 0, so this adds 0.
			{Op: peac.FADDV, A: peac.V(1), D: peac.V(1)},
			{Op: peac.FMADDV, A: peac.V(1), B: peac.S(16), C: peac.S(18), D: peac.V(1)}, // S18 unbound -> 0
			{Op: peac.FSTRV, A: peac.V(1), D: peac.M(4)},
		},
	}
	const n = 33
	mk := func() *rt.Store {
		st := parStore(n, []string{"a", "d"}, func(name string, i int) float64 {
			if name == "a" {
				return float64(i) + 0.25
			}
			return 0
		})
		st.Scalars["s"] = 3.5
		return st
	}
	differential(t, "scalars", r, n, mk, []int{1}, "d")
}

// fuseRoutine builds "t = a ?1 b; d0 = acc ?2 s (or s ?2 acc); store"
// so every fused-pair shape (op pair x accumulator side) runs against
// the reference evaluator, with the pair's result sunk into the store.
func fuseRoutine(op1, op2 peac.Opcode, accLeft bool) *peac.Routine {
	second := peac.Instr{Op: op2, A: peac.V(0), B: peac.S(16), D: peac.V(0)}
	if !accLeft {
		second = peac.Instr{Op: op2, A: peac.S(16), B: peac.V(0), D: peac.V(0)}
	}
	return &peac.Routine{
		Name: "Pfuse",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
			{Kind: peac.ConstParam, Value: 1.7, Reg: 16},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: op1, A: peac.V(0), B: peac.V(1), D: peac.V(0)},
			second,
			{Op: peac.FSTRV, A: peac.V(0), D: peac.M(4)},
		},
	}
}

// TestExecJITFusedPairs sweeps every fused-pair combination the planner
// can emit — op1 x op2 x accumulator side — over inputs that include
// zeros (hence Inf and NaN intermediates for div) and asserts the JIT
// store is bit-identical to the reference evaluator, serial and parallel
// (n is past two Grain, so four workers fan out).
func TestExecJITFusedPairs(t *testing.T) {
	ops := []peac.Opcode{peac.FADDV, peac.FSUBV, peac.FMULV, peac.FDIVV}
	const n = 2*rt.Grain + 601
	fill := func(name string, i int) float64 {
		switch name {
		case "a":
			return float64(i%13) - 6 // negatives and zeros
		case "b":
			return float64(i % 7) // zero divisors -> Inf/NaN lanes
		}
		return 0
	}
	for _, op1 := range ops {
		for _, op2 := range ops {
			for _, accLeft := range []bool{true, false} {
				differential(t, fmt.Sprintf("op1=%v op2=%v accLeft=%v", op1, op2, accLeft),
					fuseRoutine(op1, op2, accLeft), n,
					func() *rt.Store { return parStore(n, []string{"a", "b", "d"}, fill) }, []int{1, 4}, "d")
			}
		}
	}
}

// TestExecJITSinkAliasing runs a sinkable chain with the store target
// bound to the same array as a load source — the hazard check must
// reject the optimized chain and the reference chain must still match
// the reference evaluator bit for bit (in-place update semantics).
func TestExecJITSinkAliasing(t *testing.T) {
	r := &peac.Routine{
		Name: "Psinkalias",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "a", Reg: 4}, // store target aliases the load
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FSUBV, A: peac.V(0), B: peac.V(1), D: peac.V(0)},
			{Op: peac.FMULV, A: peac.V(0), B: peac.V(1), D: peac.V(0)},
			{Op: peac.FSTRV, A: peac.V(0), D: peac.M(4)},
		},
	}
	const n = 2*rt.Grain + 31
	fill := func(name string, i int) float64 {
		if name == "a" {
			return float64(i%19) + 0.5
		}
		return float64(i%5) + 1
	}
	differential(t, "sinkalias", r, n, func() *rt.Store { return parStore(n, []string{"a", "b"}, fill) }, []int{1, 4}, "a")
}

// TestExecJITFusionLiveness pins the planner's deadness rule: a register
// consumed by a later instruction must not be fused away or sunk, so the
// chain that stores v0 and then reuses it still matches the reference evaluator.
func TestExecJITFusionLiveness(t *testing.T) {
	r := &peac.Routine{
		Name: "Plive",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
			{Kind: peac.ArrayParam, Name: "e", Reg: 5},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FADDV, A: peac.V(0), B: peac.V(1), D: peac.V(0)},
			{Op: peac.FSTRV, A: peac.V(0), D: peac.M(4)}, // v0 still live: no sink
			{Op: peac.FMULV, A: peac.V(0), B: peac.V(0), D: peac.V(1)},
			{Op: peac.FSTRV, A: peac.V(1), D: peac.M(5)},
		},
	}
	const n = 2*rt.Grain + 77
	fill := func(name string, i int) float64 {
		switch name {
		case "a":
			return float64(i % 11)
		case "b":
			return float64(i%3) + 0.25
		}
		return 0
	}
	differential(t, "liveness", r, n,
		func() *rt.Store { return parStore(n, []string{"a", "b", "d", "e"}, fill) }, []int{2}, "d", "e")
}

// TestExecJITFusedNumericRecord runs a fusable chain with the numeric
// record plane active: the fused chain skips intermediate scans, so the
// engine must fall back to the reference chain and the tallies (and the
// store) must match the reference evaluator exactly.
func TestExecJITFusedNumericRecord(t *testing.T) {
	r := fuseRoutine(peac.FDIVV, peac.FMULV, true)
	const n = 2*rt.Grain + 99
	fill := func(name string, i int) float64 {
		switch name {
		case "a":
			return float64(i%13) - 6
		case "b":
			return float64(i % 7) // zero divisors -> overflow tallies
		}
		return 0
	}
	run := func(e Engine) (*rt.Numeric, *rt.Store) {
		st := parStore(n, []string{"a", "b", "d"}, fill)
		num := &rt.Numeric{Mode: rt.NumericRecord}
		if err := execEngine(e, fresh(r), n, st, ExecOpts{Num: num, Subgrid: 8, PEs: 2048, Workers: 2}); err != nil {
			t.Fatalf("engine=%d: %v", e, err)
		}
		return num, st
	}
	wantNum, wantSt := run(EngineReference)
	if wantNum.Total() == 0 {
		t.Fatal("record run tallied no exceptional lanes; test inputs are broken")
	}
	for _, sel := range selections {
		gotNum, gotSt := run(sel.e)
		sameTallies(t, sel.name, gotNum, wantNum)
		sameBits(t, sel.name, gotSt, wantSt, "d")
	}
}
