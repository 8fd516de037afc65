package peac

// Regression tests for the dual-issue group accounting and the Fig. 12
// rendering: a group is a non-paired instruction plus every consecutive
// Paired follower, tracked by an explicit open flag — not inferred from
// a nonzero group cost — so a pair dual-issued into a NOP's zero-cost
// slot joins that group, a chain of Paired instructions stays one
// group (and one rendered line), and a body-leading Paired instruction
// opens its own group and renders its orphaned pair marker visibly.

import (
	"strings"
	"testing"
)

// TestBodyCyclesGroups is the satellite table test: hand-computed
// totals under DefaultCost (VectorOp 6, Divide 36, Sqrt 42, Transcend
// 60, Spill 9, LoopJnz 1; NOP 0) across the pairing edge cases, with
// the ByClass and ByLine views asserted to conserve the same total.
func TestBodyCyclesGroups(t *testing.T) {
	cases := []struct {
		name string
		body []Instr
		want int // BodyCycles including the trailing jnz charge
	}{
		{
			name: "serial-only",
			body: []Instr{{Op: FLODV}, {Op: FADDV}, {Op: FSTRV}},
			want: 6 + 6 + 6 + 1,
		},
		{
			name: "pair-does-not-raise",
			body: []Instr{{Op: FADDV}, {Op: FSTRV, Paired: true}},
			want: 6 + 1, // max(6,6)
		},
		{
			name: "pair-raises-group",
			body: []Instr{{Op: FADDV}, {Op: FDIVV, Paired: true}},
			want: 36 + 1, // max(6,36)
		},
		{
			name: "lone-nop",
			body: []Instr{{Op: NOP}},
			want: 0 + 1,
		},
		{
			name: "pair-after-nop",
			// The zero-cost NOP slot still opens a group; the pair joins
			// it and the group costs max(0,6)=6.
			body: []Instr{{Op: NOP}, {Op: FADDV, Paired: true}},
			want: 6 + 1,
		},
		{
			name: "pair-chain-after-nop",
			// {NOP, SPILLV, FADDV} is ONE group: max(0,9,6)=9.
			body: []Instr{{Op: NOP}, {Op: SPILLV, Paired: true}, {Op: FADDV, Paired: true}},
			want: 9 + 1,
		},
		{
			name: "body-leading-pair",
			// No group to join: opens its own.
			body: []Instr{{Op: FADDV, Paired: true}, {Op: FSTRV}},
			want: 6 + 6 + 1,
		},
		{
			name: "chained-pair-rising",
			// One group of three: max(6,9,42)=42, charged incrementally
			// (6, +3, +33) as each member raises it.
			body: []Instr{{Op: FADDV}, {Op: SPILLV, Paired: true}, {Op: FSQRTV, Paired: true}},
			want: 42 + 1,
		},
		{
			name: "chained-pair-nonmonotone",
			// The middle member raises the group to 60; the tail does not.
			body: []Instr{{Op: FMULV}, {Op: FLOGV, Paired: true}, {Op: FSTRV, Paired: true}},
			want: 60 + 1,
		},
		{
			name: "two-groups-with-nop-between",
			// {FADDV,FSTRV} then {NOP,FDIVV}: 6 + 36.
			body: []Instr{{Op: FADDV}, {Op: FSTRV, Paired: true}, {Op: NOP}, {Op: FDIVV, Paired: true}},
			want: 6 + 36 + 1,
		},
		{
			name: "jnz-in-body-not-double-charged",
			body: []Instr{{Op: FADDV}, {Op: JNZ}},
			want: 6 + 1,
		},
	}
	c := DefaultCost
	for _, tc := range cases {
		if got := c.BodyCycles(tc.body); got != tc.want {
			t.Errorf("%s: BodyCycles = %d, want %d", tc.name, got, tc.want)
		}
		if got := c.BodyCyclesByClass(tc.body).Total(); got != tc.want {
			t.Errorf("%s: BodyCyclesByClass total = %d, want %d", tc.name, got, tc.want)
		}
		sum := 0
		for _, cell := range c.BodyCyclesByLine(nil, tc.body, Instr{}.Pos) {
			sum += cell.Cycles
		}
		if sum != tc.want {
			t.Errorf("%s: BodyCyclesByLine sum = %d, want %d", tc.name, sum, tc.want)
		}
	}
}

// TestFormatPairGroups pins the Fig. 12 rendering of the same edge
// cases: chained pairs stay on one line, a NOP-led group renders the
// pair beside the nop, and a body-leading Paired instruction shows its
// orphaned ", " marker instead of silently rendering unpaired. Expected
// lines are built from Instr.String() so the test pins the GROUPING,
// not the operand syntax.
func TestFormatPairGroups(t *testing.T) {
	add := Instr{Op: FADDV, A: V(0), B: V(1), D: V(0)}
	mul := Instr{Op: FMULV, A: V(0), B: V(1), D: V(2)}
	str := Instr{Op: FSTRV, A: V(0), D: M(4)}
	nop := Instr{Op: NOP}
	paired := func(in Instr) Instr { in.Paired = true; return in }
	line := func(parts ...string) string { return "    " + strings.Join(parts, ", ") }

	cases := []struct {
		name string
		body []Instr
		want []string // expected body lines, fully indented
	}{
		{
			name: "pair-on-one-line",
			body: []Instr{add, paired(str)},
			want: []string{line(add.String(), str.String())},
		},
		{
			name: "chained-pair-one-line",
			// Three instructions, one group, ONE line: the old renderer
			// flushed after the first pair, splitting the chain and
			// rendering its tail with no pair marker.
			body: []Instr{add, paired(mul), paired(str)},
			want: []string{line(add.String(), mul.String(), str.String())},
		},
		{
			name: "pair-after-nop-same-line",
			body: []Instr{nop, paired(add)},
			want: []string{line(nop.String(), add.String())},
		},
		{
			name: "body-leading-pair-marked",
			// No partner: the orphaned pair marker (leading ", ") must be
			// visible instead of the instruction silently rendering
			// unpaired.
			body: []Instr{paired(add), str},
			want: []string{"    , " + add.String(), line(str.String())},
		},
		{
			name: "jnz-excluded-from-body",
			body: []Instr{add, {Op: JNZ}},
			want: []string{line(add.String())},
		},
	}
	for _, tc := range cases {
		r := &Routine{Name: "P", Body: tc.body}
		got := r.Format()
		lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
		if lines[0] != "P_" || lines[len(lines)-1] != "    jnz ac2 P_" {
			t.Errorf("%s: bad frame:\n%s", tc.name, got)
			continue
		}
		body := lines[1 : len(lines)-1]
		if len(body) != len(tc.want) {
			t.Errorf("%s: %d body lines, want %d:\n%s", tc.name, len(body), len(tc.want), got)
			continue
		}
		for i, want := range tc.want {
			if body[i] != want {
				t.Errorf("%s: line %d = %q, want %q", tc.name, i, body[i], want)
			}
		}
	}
}
