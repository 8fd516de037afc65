package cm2

// Regression tests for the chained-memory operand fix and the sharded
// executor. The chained-operand tests hand-build routines the current
// pe code generator never emits (it chains at most one Mem operand per
// instruction) but the public executor API accepts: before the fix, a
// single shared fetch buffer meant the second Mem operand of an
// instruction silently read the first operand's lanes, and an FSTRV
// with a chained source or mask read whatever the buffer last held.

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"f90y/internal/nir"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// parStore builds a store of float64 arrays with the given element
// count, filling each named array by f(name, i).
func parStore(n int, names []string, f func(name string, i int) float64) *rt.Store {
	st := &rt.Store{
		Arrays:  map[string]*rt.Array{},
		Scalars: map[string]float64{},
		Kinds:   map[string]nir.ScalarKind{},
	}
	for _, name := range names {
		a := rt.NewArray(nir.Float64, shape.Of(n))
		for i := 0; i < n; i++ {
			a.Data[i] = f(name, i)
		}
		st.Arrays[name] = a
	}
	return st
}

// TestExecChainedMemMultiOperand is the headline regression: an
// instruction chaining DISTINCT memory streams in both A and B must
// read each stream's own lanes. With the old single memBuf, d = a + b
// silently computed a + a.
func TestExecChainedMemMultiOperand(t *testing.T) {
	r := &peac.Routine{
		Name: "Pchain2",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
		},
		Body: []peac.Instr{
			{Op: peac.FADDV, A: peac.M(2), B: peac.M(3), D: peac.V(0)},
			{Op: peac.FSTRV, A: peac.V(0), D: peac.M(4)},
		},
	}
	const n = 10
	st := parStore(n, []string{"a", "b", "d"}, func(name string, i int) float64 {
		switch name {
		case "a":
			return float64(i)
		case "b":
			return 1000 + float64(i)
		}
		return 0
	})
	if err := execRoutine(r, shape.Of(n), st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := float64(i) + (1000 + float64(i))
		if got := st.Arrays["d"].Data[i]; got != want {
			t.Fatalf("d[%d] = %v, want %v (stale-buffer bug: chained B read A's lanes)", i, got, want)
		}
	}
}

// TestExecChainedAddend chains the C (fmadd addend) operand alongside a
// chained A: three distinct streams on one instruction.
func TestExecChainedAddend(t *testing.T) {
	r := &peac.Routine{
		Name: "Pchain3",
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
	}
	const n = 7
	st := parStore(n, []string{"a", "b", "c", "d"}, func(name string, i int) float64 {
		switch name {
		case "a":
			return float64(i + 1)
		case "b":
			return 2
		case "c":
			return 100 * float64(i)
		}
		return 0
	})
	if err := execRoutine(r, shape.Of(n), st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := float64(float64(i+1)*2) + float64(100*float64(i))
		if got := st.Arrays["d"].Data[i]; got != want {
			t.Fatalf("d[%d] = %v, want %v", i, got, want)
		}
	}
}

// TestExecFstrvChainedSourceAndMask stores straight from one chained
// stream under a mask read from another: before the fix FSTRV resolved
// Mem operands through the shared buffer WITHOUT fetching at all.
func TestExecFstrvChainedSourceAndMask(t *testing.T) {
	r := &peac.Routine{
		Name: "Pstrchain",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "src", Reg: 2},
			{Kind: peac.ArrayParam, Name: "mask", Reg: 3},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
		},
		Body: []peac.Instr{
			{Op: peac.FSTRV, A: peac.M(2), C: peac.M(3), D: peac.M(4)},
		},
	}
	const n = 9
	st := parStore(n, []string{"src", "mask", "d"}, func(name string, i int) float64 {
		switch name {
		case "src":
			return 10 + float64(i)
		case "mask":
			return float64(i % 2) // store odd elements only
		case "d":
			return -1
		}
		return 0
	})
	if err := execRoutine(r, shape.Of(n), st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := -1.0
		if i%2 == 1 {
			want = 10 + float64(i)
		}
		if got := st.Arrays["d"].Data[i]; got != want {
			t.Fatalf("d[%d] = %v, want %v (FSTRV must fetch chained source and mask)", i, got, want)
		}
	}
}

// TestExecChainedUnboundPointer asserts a chained Mem operand naming an
// unbound pointer register fails loudly instead of reading garbage.
func TestExecChainedUnboundPointer(t *testing.T) {
	r := &peac.Routine{
		Name: "Punbound",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
		},
		Body: []peac.Instr{
			{Op: peac.FADDV, A: peac.M(2), B: peac.M(9), D: peac.V(0)},
			{Op: peac.FSTRV, A: peac.V(0), D: peac.M(4)},
		},
	}
	st := parStore(4, []string{"a", "d"}, func(string, int) float64 { return 1 })
	err := execRoutine(r, shape.Of(4), st)
	if err == nil || !strings.Contains(err.Error(), "unbound pointer aP9") {
		t.Fatalf("err = %v, want chained-load unbound pointer error", err)
	}
}

// chunkRoutine exercises loads, spills, a coordinate stream, and a
// masked store — enough machinery that any chunk-boundary bug in the
// sharded executor shows up as a wrong lane.
func chunkRoutine() *peac.Routine {
	return &peac.Routine{
		Name:       "Pchunks",
		SpillSlots: 1,
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
			{Kind: peac.CoordParam, Dim: 1, Reg: 5},
			{Kind: peac.ConstParam, Value: 3, Reg: 16},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.SPILLV, A: peac.V(0), D: peac.Operand{Kind: peac.SpillSlot}},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FLODV, A: peac.M(5), D: peac.V(2)},
			{Op: peac.FMULV, A: peac.V(1), B: peac.S(16), D: peac.V(1)},
			{Op: peac.RESTV, A: peac.Operand{Kind: peac.SpillSlot}, D: peac.V(3)},
			{Op: peac.FMADDV, A: peac.V(3), B: peac.V(2), C: peac.V(1), D: peac.V(3)},
			{Op: peac.FSTRV, A: peac.V(3), D: peac.M(4)},
		},
	}
}

func chunkStore(n int) *rt.Store {
	return parStore(n, []string{"a", "b", "d"}, func(name string, i int) float64 {
		switch name {
		case "a":
			return 1 + float64(i%17)
		case "b":
			return float64(i % 5)
		}
		return 0
	})
}

// TestExecParallelChunkBoundaries runs element counts around every
// chunk-boundary case (n < chunk, n == chunk, n % chunk != 0, the
// fan-out boundary at two chunks, many chunks) across worker counts and
// asserts the stores are bit-identical to the serial run.
func TestExecParallelChunkBoundaries(t *testing.T) {
	r := chunkRoutine()
	for _, n := range []int{1, 7, rt.Grain - 1, rt.Grain, rt.Grain + 1, 2 * rt.Grain, 2*rt.Grain + 1, 3*rt.Grain + 5} {
		ref := chunkStore(n)
		if err := ExecRoutineOpts(context.Background(), r, shape.Of(n), ref, ExecOpts{Workers: 1}); err != nil {
			t.Fatalf("n=%d serial: %v", n, err)
		}
		for _, workers := range []int{2, 3, 8, -1} {
			st := chunkStore(n)
			if err := ExecRoutineOpts(context.Background(), r, shape.Of(n), st, ExecOpts{Workers: workers}); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i, want := range ref.Arrays["d"].Data {
				got := st.Arrays["d"].Data[i]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d workers=%d: d[%d] = %v, want %v (not bit-exact)", n, workers, i, got, want)
				}
			}
		}
	}
}

// TestExecParallelNumericRecordMerge asserts record-mode tallies are
// identical whatever the worker count: per-worker private planes merge
// per class.
func TestExecParallelNumericRecordMerge(t *testing.T) {
	r := &peac.Routine{
		Name: "Pnum",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FDIVV, A: peac.V(0), B: peac.V(1), D: peac.V(2)}, // x/0 -> Inf, 0/0 -> NaN
			{Op: peac.FLOGV, A: peac.V(1), D: peac.V(1)},
			{Op: peac.FSTRV, A: peac.V(2), D: peac.M(4)},
		},
	}
	n := 2*rt.Grain + 100
	mk := func() *rt.Store {
		return parStore(n, []string{"a", "b", "d"}, func(name string, i int) float64 {
			switch name {
			case "a":
				if i%97 == 0 {
					return 0 // with b==0: NaN
				}
				return 1
			case "b":
				if i%13 == 0 {
					return 0 // divide by zero: Inf (or NaN when a==0 too)
				}
				return 2
			}
			return 0
		})
	}

	run := func(workers int) *rt.Numeric {
		num := &rt.Numeric{Mode: rt.NumericRecord}
		if err := ExecRoutineOpts(context.Background(), r, shape.Of(n), mk(), ExecOpts{Num: num, Subgrid: 8, PEs: 2048, Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return num
	}
	ref := run(1)
	if ref.Total() == 0 {
		t.Fatal("record run tallied no exceptional lanes; test inputs are broken")
	}
	for _, workers := range []int{2, 4, -1} {
		got := run(workers)
		for cl, c := range ref.NaN {
			if got.NaN[cl] != c {
				t.Errorf("workers=%d: NaN[%s] = %d, want %d", workers, cl, got.NaN[cl], c)
			}
		}
		for cl, c := range ref.Inf {
			if got.Inf[cl] != c {
				t.Errorf("workers=%d: Inf[%s] = %d, want %d", workers, cl, got.Inf[cl], c)
			}
		}
		if got.Total() != ref.Total() {
			t.Errorf("workers=%d: total %d, want %d", workers, got.Total(), ref.Total())
		}
	}
}

// TestExecParallelTrapLowestElement plants exceptional lanes in two
// different chunks and asserts every worker count traps on the same,
// lowest element — the exact error the serial executor returns —
// regardless of which worker finishes first.
func TestExecParallelTrapLowestElement(t *testing.T) {
	r := &peac.Routine{
		Name: "Ptrap",
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
	n := 4 * rt.Grain
	mk := func() *rt.Store {
		return parStore(n, []string{"a", "b", "d"}, func(name string, i int) float64 {
			if name == "b" {
				// Zeros (-> Inf) in chunk 1 and chunk 3.
				if i == rt.Grain+123 || i == 3*rt.Grain+7 {
					return 0
				}
				return 2
			}
			return 1
		})
	}
	run := func(workers int) error {
		num := &rt.Numeric{Mode: rt.NumericTrap}
		return ExecRoutineOpts(context.Background(), r, shape.Of(n), mk(), ExecOpts{Num: num, Subgrid: 8, PEs: 4096, Workers: workers})
	}
	ref := run(1)
	if ref == nil || !errors.Is(ref, rt.ErrNumeric) {
		t.Fatalf("serial trap error = %v, want rt.ErrNumeric", ref)
	}
	wantElem := "element " + itoaTest(rt.Grain+123)
	if !strings.Contains(ref.Error(), wantElem) {
		t.Fatalf("serial trap error %q does not name the lowest exceptional %s", ref, wantElem)
	}
	for _, workers := range []int{2, 8, -1} {
		err := run(workers)
		if err == nil || err.Error() != ref.Error() {
			t.Errorf("workers=%d: trap error %q, want serial error %q", workers, err, ref)
		}
	}
}

// TestExecParallelCanceled asserts a canceled context stops a dispatch
// with an error wrapping rt.ErrCanceled at every width, one worker
// included.
func TestExecParallelCanceled(t *testing.T) {
	r := chunkRoutine()
	n := 2 * rt.Grain
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{0, 1, 2, 8} {
		err := ExecRoutineOpts(ctx, r, shape.Of(n), chunkStore(n), ExecOpts{Workers: workers})
		if !errors.Is(err, rt.ErrCanceled) {
			t.Errorf("workers=%d: err = %v, want rt.ErrCanceled", workers, err)
		}
	}
}

// TestScanNumericPEClamp drives the executor with a subgrid that does
// not tile the shape: the last elements' element/subgrid quotient lands
// past the machine, and the trap attribution must clamp to the last
// real processing element.
func TestScanNumericPEClamp(t *testing.T) {
	r := &peac.Routine{
		Name: "Pclamp",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "d", Reg: 4},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLOGV, A: peac.V(0), D: peac.V(1)},
			{Op: peac.FSTRV, A: peac.V(1), D: peac.M(4)},
		},
	}
	const n = 10
	st := parStore(n, []string{"a", "d"}, func(name string, i int) float64 {
		if name == "a" {
			if i == n-1 {
				return -1 // log(-1) = NaN at the last element
			}
			return 1
		}
		return 0
	})
	num := &rt.Numeric{Mode: rt.NumericTrap}
	// Subgrid 1 on a 4-PE machine: element 9's naive quotient is PE 9,
	// which does not exist; attribution must clamp to PE 3.
	err := ExecRoutineOpts(context.Background(), r, shape.Of(n), st, ExecOpts{Num: num, Subgrid: 1, PEs: 4})
	if err == nil || !errors.Is(err, rt.ErrNumeric) {
		t.Fatalf("err = %v, want rt.ErrNumeric", err)
	}
	if !strings.Contains(err.Error(), "processing element 3") {
		t.Fatalf("err = %q, want PE attribution clamped to processing element 3", err)
	}
}

func itoaTest(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
