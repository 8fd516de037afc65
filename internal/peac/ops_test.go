package peac

import (
	"math"
	"testing"
)

// sameLane is bit equality with every NaN equal to every other, so ±0
// are told apart.
func sameLane(got, want float64) bool {
	if got != got || want != want {
		return got != got && want != want
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// TestOpTable states the lane semantics of every PEAC op once, as
// literal values on an edge vector, now that the executor and the
// reference evaluator share the table's loops and can no longer catch
// each other restating an op wrongly. It also pins the table's shape:
// total over NOP..JNZ, and a lane loop for every op that computes lanes.
func TestOpTable(t *testing.T) {
	for op := NOP; op <= JNZ; op++ {
		info := op.Info()
		if info.Name == "" {
			t.Errorf("opcode %d has no table row", op)
		}
		fn, fnErr := Instr{Op: op}.Lanes()
		_, intErr := Instr{Op: op, IntOp: true}.Lanes()
		switch info.Form {
		case FormArith:
			if fn == nil || fnErr != nil || info.Srcs < 1 || info.Srcs > 3 {
				t.Errorf("%s: arithmetic op with lane loop %v/%v and %d sources", info.Name, fn != nil, fnErr != nil, info.Srcs)
			}
			if (intErr != nil) != (op == FDIVV || op == FMODV) {
				t.Errorf("%s: IntOp faulting loop present = %v", info.Name, intErr != nil)
			}
		case FormLoad, FormSpill, FormRestore:
			dst := make([]float64, 2)
			if fn == nil {
				t.Fatalf("%s: no copy loop", info.Name)
			}
			if fn(dst, []float64{3, -0.5, 9}, nil, nil); dst[0] != 3 || dst[1] != -0.5 {
				t.Errorf("%s: copy loop wrote %v", info.Name, dst)
			}
		default:
			if fn != nil || fnErr != nil {
				t.Errorf("%s: form %d has a lane loop", info.Name, info.Form)
			}
		}
	}
	if info := Opcode(250).Info(); info.Name != "" || info.Form != FormArith || info.Lanes != nil {
		t.Errorf("an opcode outside the table decodes as %+v", info)
	}
	if info := Opcode(-1).Info(); info != &unknownOp {
		t.Errorf("a negative opcode decodes as %+v", info)
	}

	nan, inf, nz := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	x := []float64{nan, 0, nz, inf, -inf, -2.5, 7, 1}
	y := []float64{1, nz, 3, -inf, 2, 2, -2, nan}
	z := []float64{0, 1, -1, 0, nan, 1, 0, 5}
	cases := []struct {
		in   Instr
		want []float64
	}{
		{Instr{Op: FADDV}, []float64{nan, 0, 3, nan, -inf, -0.5, 5, nan}},
		{Instr{Op: FSUBV}, []float64{nan, 0, -3, inf, -inf, -4.5, 9, nan}},
		{Instr{Op: FMULV}, []float64{nan, nz, nz, -inf, -inf, -5, -14, nan}},
		{Instr{Op: FDIVV}, []float64{nan, nan, nz, nan, -inf, -1.25, -3.5, nan}},
		{Instr{Op: FMODV}, []float64{nan, nan, nz, nan, nan, -0.5, 1, nan}},
		{Instr{Op: FMINV}, []float64{nan, nz, nz, -inf, -inf, -2.5, -2, nan}},
		{Instr{Op: FMAXV}, []float64{nan, 0, 3, inf, 2, 2, 7, nan}},
		{Instr{Op: FMADDV}, []float64{nan, 1, -1, -inf, nan, -4, -14, nan}},
		{Instr{Op: FMSUBV}, []float64{nan, -1, 1, -inf, nan, -6, -14, nan}},
		{Instr{Op: FNEGV}, []float64{nan, nz, 0, -inf, inf, 2.5, -7, -1}},
		{Instr{Op: FABSV}, []float64{nan, 0, 0, inf, inf, 2.5, 7, 1}},
		{Instr{Op: FSQRTV}, []float64{nan, 0, nz, inf, nan, nan, math.Sqrt(7), 1}},
		{Instr{Op: FSINV}, []float64{nan, 0, nz, nan, nan, math.Sin(-2.5), math.Sin(7), math.Sin(1)}},
		{Instr{Op: FCOSV}, []float64{nan, 1, 1, nan, nan, math.Cos(-2.5), math.Cos(7), math.Cos(1)}},
		{Instr{Op: FTANV}, []float64{nan, 0, nz, nan, nan, math.Tan(-2.5), math.Tan(7), math.Tan(1)}},
		{Instr{Op: FEXPV}, []float64{nan, 1, 1, inf, 0, math.Exp(-2.5), math.Exp(7), math.E}},
		{Instr{Op: FLOGV}, []float64{nan, -inf, -inf, inf, nan, nan, math.Log(7), 0}},
		{Instr{Op: FTRNCV}, []float64{nan, 0, nz, inf, -inf, -2, 7, 1}},
		{Instr{Op: FMOVV}, x},
		{Instr{Op: FNOTV}, []float64{0, 1, 1, 0, 0, 0, 0, 0}},
		{Instr{Op: FANDV}, []float64{1, 0, 0, 1, 1, 1, 1, 1}},
		{Instr{Op: FORV}, []float64{1, 0, 1, 1, 1, 1, 1, 1}},
		{Instr{Op: FEQVV}, []float64{1, 1, 0, 1, 1, 1, 1, 1}},
		{Instr{Op: FNEQV}, []float64{0, 0, 1, 0, 0, 0, 0, 0}},
		{Instr{Op: FSELV}, []float64{1, 0, nz, -inf, -inf, -2.5, -2, 1}},
		{Instr{Op: FCMPV, Cmp: CmpEQ}, []float64{0, 1, 0, 0, 0, 0, 0, 0}},
		{Instr{Op: FCMPV, Cmp: CmpNE}, []float64{1, 0, 1, 1, 1, 1, 1, 1}},
		{Instr{Op: FCMPV, Cmp: CmpLT}, []float64{0, 0, 1, 0, 1, 1, 0, 0}},
		{Instr{Op: FCMPV, Cmp: CmpLE}, []float64{0, 1, 1, 0, 1, 1, 0, 0}},
		{Instr{Op: FCMPV, Cmp: CmpGT}, []float64{0, 0, 0, 1, 0, 0, 1, 0}},
		{Instr{Op: FCMPV, Cmp: CmpGE}, []float64{0, 1, 0, 1, 0, 0, 1, 0}},
		{Instr{Op: FCMPV, Cmp: CmpKind(9)}, make([]float64, 8)}, // no such predicate: false
	}
	covered := map[Opcode]bool{}
	for _, tc := range cases {
		covered[tc.in.Op] = true
		fn, _ := tc.in.Lanes()
		got := make([]float64, len(x))
		fn(got, x, y, z)
		for i := range got {
			if !sameLane(got[i], tc.want[i]) {
				t.Errorf("%s lane %d (%v, %v, %v) = %v, want %v", tc.in.Mnemonic(), i, x[i], y[i], z[i], got[i], tc.want[i])
			}
		}
	}
	for op := NOP; op <= JNZ; op++ {
		if op.Info().Form == FormArith && !covered[op] {
			t.Errorf("%s: no expected lanes in this test", op.Info().Name)
		}
	}

	// The integer divide and mod truncate toward zero and fault on the
	// first zero divisor, leaving the lanes before it written.
	xi, yi := []float64{7, -7, 9, 0, 5}, []float64{2, 2, -4, 5, 0}
	for _, tc := range []struct {
		op   Opcode
		want []float64
		err  string
	}{
		{FDIVV, []float64{3, -3, -2, 0}, "integer division by zero"},
		{FMODV, []float64{1, -1, 1, 0}, "mod by zero"},
	} {
		_, fnErr := Instr{Op: tc.op, IntOp: true}.Lanes()
		got := make([]float64, 4)
		if err := fnErr(got, xi, yi); err != nil {
			t.Errorf("%v IntOp: %v", tc.op, err)
		}
		for i := range got {
			if !sameLane(got[i], tc.want[i]) {
				t.Errorf("%v IntOp lane %d = %v, want %v", tc.op, i, got[i], tc.want[i])
			}
		}
		got = make([]float64, 5)
		if err := fnErr(got, xi, yi); err == nil || err.Error() != tc.err || !sameLane(got[3], tc.want[3]) {
			t.Errorf("%v IntOp by zero: err %v, lane 3 = %v; want %q after lane 3 = %v", tc.op, err, got[3], tc.err, tc.want[3])
		}
	}
}
