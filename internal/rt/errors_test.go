package rt

import (
	"errors"
	"math"
	"testing"

	"f90y/internal/faults"
	"f90y/internal/nir"
	"f90y/internal/shape"
)

// every returns a whole-array reference.
func every(name string) nir.AVar { return nir.AVar{Name: name, Field: nir.Everywhere{}} }

func shiftCall(src nir.Value) nir.FcnCall {
	return nir.FcnCall{Name: "cm_cshift", Args: []nir.Value{src, nir.IntConst(1), nir.IntConst(1)}}
}

// TestCommErrorSentinels locks in the error taxonomy of the
// communication layer: every failure wraps exactly one of the rt
// sentinels, so callers classify with errors.Is instead of string
// matching.
func TestCommErrorSentinels(t *testing.T) {
	st, _ := storeFor(t, `program t
real a(4), b(4), m(2,2), r1(4), d6(6)
real s
a = 0
b = 0
m = 0
r1 = 0
d6 = 0
s = 0
end program t`)

	over := shape.Of(4)
	move := func(src nir.Value, tgt nir.Value) nir.Move {
		return nir.Move{Over: over, Moves: []nir.GuardedMove{{Mask: nir.True, Src: src, Tgt: tgt}}}
	}

	cases := []struct {
		name string
		mv   nir.Move
		want error
	}{
		{"shift-src-not-array", move(shiftCall(nir.IntConst(3)), every("b")), ErrBadOperand},
		{"shift-src-undefined", move(shiftCall(every("nope")), every("b")), ErrUndefined},
		{"shift-target-undefined", move(shiftCall(every("a")), every("nope")), ErrUndefined},
		{"shift-target-not-array", move(shiftCall(every("a")), nir.SVar{Name: "s"}), ErrBadOperand},
		{"shift-dim-out-of-range", move(
			nir.FcnCall{Name: "cm_cshift", Args: []nir.Value{every("a"), nir.IntConst(1), nir.IntConst(3)}},
			every("b")), ErrShape},
		{"unknown-intrinsic", move(nir.FcnCall{Name: "cm_warp", Args: []nir.Value{every("a")}}, every("b")),
			ErrBadOperand},
		{"reduce-target-not-scalar", nir.Move{Moves: []nir.GuardedMove{{
			Mask: nir.True,
			Src:  nir.FcnCall{Name: "cm_reduce_sum", Args: []nir.Value{every("a")}},
			Tgt:  every("b"),
		}}}, ErrBadOperand},
		{"transpose-rank-1", move(nir.FcnCall{Name: "cm_transpose", Args: []nir.Value{every("r1")}}, every("b")),
			ErrShape},
		{"dot-size-mismatch", nir.Move{Moves: []nir.GuardedMove{{
			Mask: nir.True,
			Src:  nir.FcnCall{Name: "cm_dot", Args: []nir.Value{every("a"), every("d6")}},
			Tgt:  nir.SVar{Name: "s"},
		}}}, ErrShape},
		{"dot-target-not-scalar", nir.Move{Moves: []nir.GuardedMove{{
			Mask: nir.True,
			Src:  nir.FcnCall{Name: "cm_dot", Args: []nir.Value{every("a"), every("b")}},
			Tgt:  every("b"),
		}}}, ErrBadOperand},
		{"move-scalar-over", nir.Move{Moves: []nir.GuardedMove{{
			Mask: nir.True, Src: nir.SVar{Name: "s"}, Tgt: nir.SVar{Name: "s"},
		}}}, ErrBadOperand},
		{"move-target-not-array", move(every("a"), nir.SVar{Name: "s"}), ErrBadOperand},
		{"move-target-undefined", move(every("a"), every("nope")), ErrUndefined},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := newComm(st).ExecMove(tc.mv)
			if err == nil {
				t.Fatal("no error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not wrap %v", err, tc.want)
			}
		})
	}
}

// TestShiftSizeMismatchShapeError pins the size check specifically: a
// 2x2 source shifted into an 8-element target is a shape error.
func TestShiftSizeMismatchShapeError(t *testing.T) {
	st, _ := storeFor(t, "program t\nreal m(2,2), w(8)\nm = 0\nw = 0\nend program t")
	mv := nir.Move{Over: shape.Of(4), Moves: []nir.GuardedMove{{
		Mask: nir.True, Src: shiftCall(every("m")), Tgt: every("w"),
	}}}
	err := newComm(st).ExecMove(mv)
	if !errors.Is(err, ErrShape) {
		t.Fatalf("error %v does not wrap ErrShape", err)
	}
}

// TestGeneralMoveOperandTooShort: a general move over a shape one
// element longer than a whole-array operand is a shape error, whether
// the short array is read or written — never an index panic.
func TestGeneralMoveOperandTooShort(t *testing.T) {
	st, _ := storeFor(t, "program t\nreal a(4), b(5)\na = 0\nb = 0\nend program t")
	over := shape.Of(5)
	for name, g := range map[string]nir.GuardedMove{
		"source": {Mask: nir.True, Src: every("a"), Tgt: every("b")},
		"target": {Mask: nir.True, Src: every("b"), Tgt: every("a")},
	} {
		err := newComm(st).ExecMove(nir.Move{Over: over, Moves: []nir.GuardedMove{g}})
		if !errors.Is(err, ErrShape) {
			t.Errorf("%s one element short: error %v does not wrap ErrShape", name, err)
		}
	}
}

// faultedMatchesClean runs mv on two stores of one program, filled
// alike, the second under a 50% corruption rate: every corrupted
// transfer must be caught by its verify and retransmitted, so the
// faulted store ends bit-equal to the fault-free one, with the retries
// counted and charged.
func faultedMatchesClean(t *testing.T, src string, fill func(*Store), mv nir.Move) {
	t.Helper()
	clean, _ := storeFor(t, src)
	faulted, _ := storeFor(t, src)
	fill(clean)
	fill(faulted)
	cc, fc := newComm(clean), newComm(faulted)
	inj := faults.New(&faults.Plan{Seed: 42, Corrupt: 0.5, MaxRetries: 64}, nil)
	fc.Faults = inj
	if err := cc.ExecMove(mv); err != nil {
		t.Fatal(err)
	}
	if err := fc.ExecMove(mv); err != nil {
		t.Fatal(err)
	}
	for name, v := range clean.Scalars {
		if g := faulted.Scalars[name]; math.Float64bits(g) != math.Float64bits(v) {
			t.Errorf("scalar %s = %v under corruption, %v without", name, g, v)
		}
	}
	for name, a := range clean.Arrays {
		for i, v := range a.Data {
			if g := faulted.Arrays[name].Data[i]; math.Float64bits(g) != math.Float64bits(v) {
				t.Errorf("%s[%d] = %v under corruption, %v without", name, i, g, v)
			}
		}
	}
	if s := inj.Stats(); s.Injected["corrupt"] == 0 || s.Retries != s.Injected["corrupt"] {
		t.Errorf("%d corruptions, %d retries: want some, each caught and retried", s.Injected["corrupt"], s.Retries)
	}
	if fc.Cycles <= cc.Cycles {
		t.Errorf("retries charged nothing: %v cycles, %v clean", fc.Cycles, cc.Cycles)
	}
}

// TestGeneralMoveCorruptionVerified drives deliverWrites' corrupt and
// verify closures: one guarded move writes each offset of r twice (the
// second write must win, in the commit and in the check), the other
// stores into an Integer32 target, whose check must compare the
// truncated value.
func TestGeneralMoveCorruptionVerified(t *testing.T) {
	S := shape.Of(6)
	i := nir.LocalUnder{S: S, Dim: 1}
	at := func(name string, sub nir.Value) nir.AVar {
		return nir.AVar{Name: name, Field: nir.Subscript{Subs: []nir.Value{sub}}}
	}
	half := nir.Binary{Op: nir.Div, L: nir.Binary{Op: nir.Plus, L: i, R: nir.IntConst(1)}, R: nir.IntConst(2)}
	mv := nir.Move{Over: S, Moves: []nir.GuardedMove{
		{Mask: nir.True, Src: at("a", i), Tgt: at("r", half)},
		{Mask: nir.True, Src: at("a", nir.Binary{Op: nir.Minus, L: nir.IntConst(7), R: i}), Tgt: at("k", i)},
	}}
	faultedMatchesClean(t, "program t\nreal a(6), r(3)\ninteger k(6)\na = 0\nr = 0\nk = 0\nend program t",
		func(st *Store) {
			for j := range st.Arrays["a"].Data {
				st.Arrays["a"].Data[j] = 1.75 * float64(j+1)
			}
		}, mv)
}

// TestReductionCorruptionVerified drives deliverScalar's verify: a sum
// whose result is corrupted in flight is retransmitted until it lands.
func TestReductionCorruptionVerified(t *testing.T) {
	mv := nir.Move{Moves: []nir.GuardedMove{{
		Mask: nir.True,
		Src:  nir.FcnCall{Name: "cm_reduce_sum", Args: []nir.Value{every("a")}},
		Tgt:  nir.SVar{Name: "s"},
	}}}
	faultedMatchesClean(t, "program t\nreal a(8)\nreal s\na = 0\ns = 0\nend program t",
		func(st *Store) {
			for j := range st.Arrays["a"].Data {
				st.Arrays["a"].Data[j] = float64(j) + 0.5
			}
		}, mv)
}

// TestTransferGivesUpAfterRetries drives the resilient delivery path to
// exhaustion: with a 100% drop rate every retransmission is lost, the
// retry budget runs out, and the failure wraps faults.ErrTransfer with
// the extra retry cycles charged to the network bucket.
func TestTransferGivesUpAfterRetries(t *testing.T) {
	st, _ := storeFor(t, "program t\nreal a(4), b(4)\na = 0\nb = 0\nend program t")
	c := newComm(st)
	inj := faults.New(&faults.Plan{Seed: 1, Drop: 1, MaxRetries: 3}, nil)
	c.Faults = inj

	clean := newComm(st)
	mv := nir.Move{Over: shape.Of(4), Moves: []nir.GuardedMove{{
		Mask: nir.True, Src: shiftCall(every("a")), Tgt: every("b"),
	}}}
	if err := clean.ExecMove(mv); err != nil {
		t.Fatal(err)
	}

	err := c.ExecMove(mv)
	if !errors.Is(err, faults.ErrTransfer) {
		t.Fatalf("error %v does not wrap faults.ErrTransfer", err)
	}
	if c.Cycles <= clean.Cycles {
		t.Fatalf("retries charged no extra cycles: %v <= %v", c.Cycles, clean.Cycles)
	}
	s := inj.Stats()
	if s.Retries != 3 || s.Injected["drop"] != 4 {
		t.Fatalf("stats: %d retries, %d drops", s.Retries, s.Injected["drop"])
	}
}

// TestCorruptionDetectedAndRepaired injects a 100% corruption rate with
// a generous retry budget... every transfer is corrupted, detected by
// the checksum, and retransmitted until the corruption draw happens to
// leave the payload checksum-clean — with rate 1.0 it never does, so
// delivery must fail; with rate 0.5 it eventually succeeds and the
// data must be exact.
func TestCorruptionDetectedAndRepaired(t *testing.T) {
	st, _ := storeFor(t, "program t\nreal a(8), b(8)\na = 0\nb = 0\nend program t")
	for i := range st.Arrays["a"].Data {
		st.Arrays["a"].Data[i] = float64(i) + 0.5
	}
	mv := nir.Move{Over: shape.Of(8), Moves: []nir.GuardedMove{{
		Mask: nir.True, Src: shiftCall(every("a")), Tgt: every("b"),
	}}}

	c := newComm(st)
	c.Faults = faults.New(&faults.Plan{Seed: 42, Corrupt: 0.5, MaxRetries: 64}, nil)
	if err := c.ExecMove(mv); err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 0.5}
	for i, w := range want {
		if st.Arrays["b"].Data[i] != w {
			t.Fatalf("b[%d] = %v, want %v (corruption leaked through)", i, st.Arrays["b"].Data[i], w)
		}
	}
	if c.Faults.Stats().Injected["corrupt"] == 0 {
		t.Fatal("no corruption was injected")
	}
}
