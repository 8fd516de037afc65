//go:build !race

package f90y

// The compile path's ledger (EXPERIMENTS C1): what a compile allocates,
// and that what it produces is a function of its input. Both are exact
// counts against committed numbers, so the file is kept out of the race
// build (the detector changes what the runtime allocates) and run by
// scripts/modeled_check.sh beside the other deterministic golden.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"f90y/internal/lexer"
	"f90y/internal/source"
	"f90y/internal/workload"
)

// Budgets for compiling workload.Statements(16, 4000). The parent of the
// change that introduced them (96aa62e) read 785,405 allocations and
// 69.4 MB; raise them only with a row in EXPERIMENTS saying what was bought.
const (
	compileAllocBudget = 240_000
	compileByteBudget  = 28 << 20
)

// compileCost is allocations and bytes per compile of src, measured the
// way testing.AllocsPerRun does (one processor, one warm-up run).
func compileCost(t *testing.T, src string) (allocs, bytes float64) {
	t.Helper()
	const runs = 3
	var before, after runtime.MemStats
	first := true
	allocs = testing.AllocsPerRun(runs, func() {
		if first { // the warm-up run: start the byte count after it
			defer runtime.ReadMemStats(&before)
			first = false
		}
		if _, err := Compile("budget.f90", src, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

func TestCompileAllocBudget(t *testing.T) {
	allocs, bytes := compileCost(t, workload.Statements(16, 4000))
	t.Logf("4000 statements: %.0f allocations, %.1f MB a compile", allocs, bytes/(1<<20))
	if allocs > compileAllocBudget {
		t.Errorf("%.0f allocations a compile, budget %d", allocs, compileAllocBudget)
	}
	if bytes > compileByteBudget {
		t.Errorf("%.1f MB a compile, budget %d MB", bytes/(1<<20), compileByteBudget>>20)
	}

	// A phase that goes quadratic shows as allocations per statement
	// growing with the program.
	small, _ := compileCost(t, workload.Statements(16, 1000))
	perSmall, perBig := small/1000, allocs/4000
	t.Logf("allocations per statement: %.1f at 1000, %.1f at 4000", perSmall, perBig)
	if r := perBig / perSmall; r < 0.9 || r > 1.1 {
		t.Errorf("allocations per statement %.1f at 1000 statements and %.1f at 4000: not flat", perSmall, perBig)
	}
}

// TestLexerAllocatesOneSlice: the token stream is sized once, and an
// identifier that is already lower-case is a substring of the source,
// not a copy.
func TestLexerAllocatesOneSlice(t *testing.T) {
	src := workload.Statements(16, 300)
	var rep source.Reporter
	want := 1.0 // the token slice
	for _, tok := range lexer.Tokens("lex.f90", src, &rep) {
		if tok.Kind == lexer.STRING {
			want++ // a character literal is unquoted into a string of its own
		}
	}
	if n := testing.AllocsPerRun(10, func() { lexer.Tokens("lex.f90", src, &rep) }); n != want {
		t.Errorf("lexing allocates %v times, want %v", n, want)
	}
}

// spillRatios is a kernel whose second statement re-reads the first's
// quotients pairwise after most were spilled, so single instructions
// restore two sources at once — where an allocator that walks its
// sources in map order picks registers by chance.
func spillRatios(terms int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program ratios\ninteger, parameter :: n = 64\nreal, array(n) :: r, q")
	for i := 0; i < terms; i++ {
		fmt.Fprintf(&b, ", x%d, y%d", i, i)
	}
	b.WriteString("\n")
	for i := 0; i < terms; i++ {
		fmt.Fprintf(&b, "x%d = %d.5\ny%d = %d.25\n", i, i, i, i+1)
	}
	b.WriteString("x0 = cshift(x0, 1)\n") // keeps the kernel out of the constant block
	term := func(i int) string { return fmt.Sprintf("sin(x%d/y%d)", i, i) }
	var sum, ratios []string
	for i := 0; i < terms; i++ {
		sum = append(sum, term(i))
	}
	for i := 0; i+1 < terms; i += 2 {
		ratios = append(ratios, term(i)+"/"+term(i+1))
	}
	fmt.Fprintf(&b, "r = %s\nq = %s\n", strings.Join(sum, " + "), strings.Join(ratios, " + "))
	b.WriteString("print *, sum(r), sum(q)\nend program ratios\n")
	return b.String()
}

// TestCompileDeterministic: same source and configuration, byte-identical
// PEAC — the guarantee artifacts, -profile listings and cache keys rest on.
func TestCompileDeterministic(t *testing.T) {
	cases := map[string]string{
		"ratios12":    spillRatios(12),
		"ratios16":    spillRatios(16),
		"ratios24":    spillRatios(24),
		"spillkernel": workload.SpillKernel(64, 16),
	}
	for name, src := range cases {
		listings := map[string]bool{}
		spilled := false
		for i := 0; i < 200; i++ {
			comp, err := Compile(name+".f90", src, DefaultConfig())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var all strings.Builder
			for _, r := range comp.Program.Routines {
				all.WriteString(r.Format())
				spilled = spilled || r.SpillSlots > 0
			}
			listings[all.String()] = true
		}
		if !spilled {
			t.Errorf("%s: no routine spills: the kernel no longer exercises the allocator's restore order", name)
		}
		if len(listings) != 1 {
			t.Errorf("%s: 200 compiles of one source produced %d distinct PEAC listings", name, len(listings))
		}
	}
}
