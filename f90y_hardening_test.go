package f90y

import (
	"errors"
	"strings"
	"testing"

	"f90y/internal/workload"
)

// TestCompileMalformedInput locks in the hardening contract: truncated
// and garbage sources produce a diagnostic (or compile cleanly), never
// a process crash. A recovered internal panic surfaces as *PanicError
// and counts as a failure here.
func TestCompileMalformedInput(t *testing.T) {
	swe := workload.SWE(8, 1)
	cases := map[string]string{
		"empty":            "",
		"bare-keyword":     "program",
		"unclosed-decl":    "program p\nreal :: a(\nend",
		"unclosed-do":      "program p\ninteger :: i\ndo i = 1, 10\nend program p",
		"binary-garbage":   "\x00\xff\xfe\x01 !@#$%^&*",
		"truncated-swe-1":  swe[:len(swe)/4],
		"truncated-swe-2":  swe[:len(swe)/2],
		"truncated-swe-3":  swe[:len(swe)-5],
		"shuffled-lines":   shuffleLines(swe),
		"operators-only":   "+ - * / ** = ( ) , ::",
		"deep-parens":      "program p\nreal :: x\nx = " + strings.Repeat("(", 200) + "1" + strings.Repeat(")", 200) + "\nend program p",
		"statement-noise":  "program p\nif then else where do while\nend program p",
		"mismatched-paren": "program p\nreal :: a(10)\na(1 = 2)\nend program p",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Compile(name+".f90", src, DefaultConfig())
			var pe *PanicError
			if errors.As(err, &pe) {
				t.Fatalf("compiler panicked in phase %s on %s input: %v\n%s",
					pe.Phase, name, pe.Value, pe.Stack)
			}
		})
	}
}

// shuffleLines deterministically reorders a program's lines (reversal —
// no randomness, the test must be reproducible).
func shuffleLines(src string) string {
	lines := strings.Split(src, "\n")
	for i, j := 0, len(lines)-1; i < j; i, j = i+1, j-1 {
		lines[i], lines[j] = lines[j], lines[i]
	}
	return strings.Join(lines, "\n")
}

// TestGuardRecoversPanic exercises the phase guard directly: a panic
// inside a phase becomes a structured *PanicError naming the file and
// phase, with the stack attached.
func TestGuardRecoversPanic(t *testing.T) {
	err := guard("x.f90", "lower", func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("guard returned %v, want *PanicError", err)
	}
	if pe.File != "x.f90" || pe.Phase != "lower" {
		t.Errorf("PanicError = {File: %q, Phase: %q}, want {x.f90, lower}", pe.File, pe.Phase)
	}
	if pe.Value != "boom" {
		t.Errorf("PanicError.Value = %v, want boom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack is empty")
	}
	if !strings.Contains(pe.Error(), "internal compiler error in lower") {
		t.Errorf("Error() = %q, want phase named", pe.Error())
	}

	// Errors pass through untouched.
	want := errors.New("plain")
	if got := guard("x.f90", "parse", func() error { return want }); got != want {
		t.Errorf("guard(err) = %v, want %v", got, want)
	}
}

// TestCompileRejectsOutOfRange: a declaration whose element count
// overflows an int and a constant section outside its array's bounds
// are positioned compile errors, one each, where the machines used to
// wrap the count or clip the section. A section with a bound that is
// not constant, or a zero stride, gets only that error, and in-range
// sections, strided and reversed ones included, still compile.
func TestCompileRejectsOutOfRange(t *testing.T) {
	const overflow = `p.f90:2:1: error: array "a" has more elements than an int can count`
	for _, tc := range []struct{ name, body, want string }{
		{"overflow-assign", "real a(4294967296,4294967296)\na = 1.0\nprint *, 1", overflow},
		{"overflow-element", "real a(4294967296,4294967296)\nprint *, a(1,1)", overflow},
		{"past-upper", "real a(10)\na(1:12) = 1.0",
			`p.f90:3:1: error: section 1:12:1 of "a": subscript 12 out of bounds 1:10 in dimension 1`},
		{"below-lower", "real a(10)\na(0:10) = 1.0",
			`p.f90:3:1: error: section 0:10:1 of "a": subscript 0 out of bounds 1:10 in dimension 1`},
		{"reversed", "integer ia(8), ib(9)\nib = ia(9:1:-1)",
			`p.f90:3:6: error: section 9:1:-1 of "ia": subscript 9 out of bounds 1:8 in dimension 1`},
		{"second-dim", "real b(4,0:5)\nb(:, 1:6) = 2.0",
			`p.f90:3:1: error: section 1:6:1 of "b": subscript 6 out of bounds 0:5 in dimension 2`},
		{"variable-bound", "integer n\nreal a(10)\nn = 3\na(1:n) = 1.0",
			`p.f90:5:5: error: section upper bound must be an integer constant expression`},
		{"zero-stride", "real a(10)\na(1:12:0) = 1.0", `p.f90:3:1: error: zero section stride`},
	} {
		_, err := Compile("p.f90", "program p\n"+tc.body+"\nend program p\n", DefaultConfig())
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: %v, want the one error %q", tc.name, err, tc.want)
		}
	}
	for _, body := range []string{
		"real a(10)\na(1:10) = 1.0\na(10:1:-1) = 2.0\na(2:10:3) = 3.0\na(10:1:-3) = 4.0",
		"real b(4,0:5)\nb(:, 0:5:5) = 1.0\nb(4:1:-1, 5) = 2.0",
	} {
		if _, err := Compile("p.f90", "program p\n"+body+"\nend program p\n", DefaultConfig()); err != nil {
			t.Errorf("in-range sections %q: %v", body, err)
		}
	}
}
