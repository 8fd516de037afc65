package partition

import (
	"strings"
	"testing"

	"f90y/internal/fe"
	"f90y/internal/lower"
	"f90y/internal/opt"
	"f90y/internal/parser"
	"f90y/internal/pe"
	"f90y/internal/workload"
)

func compile(t *testing.T, src string, o opt.Options) (*fe.Program, Stats) {
	t.Helper()
	tree, err := parser.Parse("t.f90", src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lower.Lower(tree)
	if err != nil {
		t.Fatal(err)
	}
	omod, _ := opt.OptimizeObs(mod, o, nil)
	prog, stats, err := Compile(omod, pe.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	return prog, stats
}

func TestDivisionOfLabor(t *testing.T) {
	// §5.1: computation phases become node procedures; the remainder —
	// serial code, scalar moves, communication — becomes host code.
	src := `program t
real, array(32,32) :: a, b
real c(32)
real s
integer i
a = a*2.0 + 1.0
b = cshift(a, 1, 1)
s = s + 1.0
do i = 1, 32
  c(i) = a(i,i)
end do
end program t
`
	prog, stats := compile(t, src, opt.Default)
	// The a-computation and the b=shifted(a) computation are separated by
	// the dependent communication: two node routines.
	if stats.NodeRoutines != 2 {
		t.Fatalf("node routines = %d", stats.NodeRoutines)
	}
	if stats.CommCalls != 1 {
		t.Fatalf("comm calls = %d", stats.CommCalls)
	}
	counts := prog.CountOps()
	if counts["do"] != 1 || counts["assign"] == 0 {
		t.Fatalf("host structure: %v", counts)
	}
	if counts["callnode"] != 2 {
		t.Fatalf("callnode = %d", counts["callnode"])
	}
}

func TestRoutineNaming(t *testing.T) {
	prog, _ := compile(t, "program t\nreal a(8), b(8)\na = 1.0\nb = cshift(a,1)\nend program t", opt.Default)
	for _, r := range prog.Routines {
		if !strings.HasPrefix(r.Name, "Pk") {
			t.Fatalf("routine name %q", r.Name)
		}
	}
}

func TestSWEPartitionStructure(t *testing.T) {
	src := workload.SWE(32, 2)
	blocked, bstats := compile(t, src, opt.Default)
	perStmt, pstats := compile(t, src, opt.Options{PadSections: true})
	if bstats.NodeRoutines >= pstats.NodeRoutines {
		t.Fatalf("blocking did not reduce routines: %d vs %d", bstats.NodeRoutines, pstats.NodeRoutines)
	}
	if blocked.CountOps()["callnode"] >= perStmt.CountOps()["callnode"] {
		t.Fatalf("blocked program should dispatch fewer node calls")
	}
	// The time loop is host structure containing node calls.
	bc := blocked.CountOps()
	if bc["do"] == 0 && bc["while"] == 0 {
		t.Fatalf("no host loop: %v", bc)
	}
	if bstats.Fallbacks != 0 || pstats.Fallbacks != 0 {
		t.Fatalf("unexpected PE fallbacks: %d/%d", bstats.Fallbacks, pstats.Fallbacks)
	}
}

func TestControlFlowStaysOnHost(t *testing.T) {
	src := `program t
integer i
real x(8)
i = 0
do while (i < 3)
  i = i + 1
end do
if (i == 3) then
  x = 1.0
else
  x = 2.0
end if
print *, i
stop
end program t
`
	prog, _ := compile(t, src, opt.Default)
	c := prog.CountOps()
	for _, k := range []string{"while", "if", "print", "stop"} {
		if c[k] != 1 {
			t.Fatalf("%s = %d: %v", k, c[k], c)
		}
	}
}

func TestCommOpsCarryMoves(t *testing.T) {
	prog, _ := compile(t, "program t\ninteger l(128)\nl(32:64) = l(96:128)\nend program t", opt.Default)
	comms := 0
	for _, op := range prog.Ops {
		if _, ok := op.(fe.Comm); ok {
			comms++
		}
	}
	if comms != 1 {
		t.Fatalf("misaligned section should be one comm op, got %d", comms)
	}
}
