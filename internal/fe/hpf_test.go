package fe

import (
	"strings"
	"testing"

	"f90y/internal/ast"
	"f90y/internal/lower"
	"f90y/internal/parser"
	"f90y/internal/shape"
)

func lowerFor(t *testing.T, src string) (*lower.Module, *ast.Program) {
	t.Helper()
	tree, err := parser.Parse("t.f90", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := lower.Lower(tree)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return mod, tree
}

func TestApplyDirectivesStamps(t *testing.T) {
	src := `program t
real, array(8,8) :: a, b, c
!HPF$ PROCESSORS p(4,2)
!HPF$ DISTRIBUTE a(BLOCK, CYCLIC(2)) ONTO p
!HPF$ ALIGN b WITH a
a = 1.0
b = a
c = b
end program t
`
	mod, tree := lowerFor(t, src)
	if err := ApplyDirectives(tree, mod.Syms, nil); err != nil {
		t.Fatalf("ApplyDirectives: %v", err)
	}
	a, _ := mod.Syms.Lookup("a")
	b, _ := mod.Syms.Lookup("b")
	c, _ := mod.Syms.Lookup("c")
	want := shape.Distribution{Dims: []shape.DimDist{{Kind: shape.DistBlock}, {Kind: shape.DistCyclic, K: 2}}}
	if !a.Dist.Equal(want, 2) || a.Dist.IsDefault() {
		t.Errorf("a.Dist = %+v, want %v", a.Dist, want)
	}
	if !b.Dist.Equal(want, 2) || b.Dist.Align != "a" {
		t.Errorf("b.Dist = %+v, want %v aligned with a", b.Dist, want)
	}
	if !c.Dist.IsDefault() {
		t.Errorf("c.Dist = %+v, want default", c.Dist)
	}
}

func TestApplyDirectivesOverrides(t *testing.T) {
	src := `program t
real, array(8) :: a
!HPF$ DISTRIBUTE a(BLOCK)
a = 1.0
end program t
`
	mod, tree := lowerFor(t, src)
	if err := ApplyDirectives(tree, mod.Syms, []string{"a=cyclic(4)"}); err != nil {
		t.Fatalf("ApplyDirectives: %v", err)
	}
	a, _ := mod.Syms.Lookup("a")
	if a.Dist.Dim(0).Kind != shape.DistCyclic || a.Dist.Dim(0).K != 4 {
		t.Errorf("override did not win: a.Dist = %+v", a.Dist)
	}

	for _, bad := range []string{"zz=block", "a=banana", "a=block,block", "noequals"} {
		mod2, tree2 := lowerFor(t, src)
		// An override has no line; its diagnostic is labelled with where
		// it came from, not "<unknown>".
		err := ApplyDirectives(tree2, mod2.Syms, []string{bad})
		if err == nil {
			t.Errorf("override %q: expected error", bad)
		} else if !strings.HasPrefix(err.Error(), "<distribute>: error: ") {
			t.Errorf("override %q: error %q is not reported at <distribute>", bad, err)
		}
	}
}

func TestApplyDirectivesErrors(t *testing.T) {
	cases := []struct {
		name string
		dirs string
		want string
	}{
		{"unknown array", "!HPF$ DISTRIBUTE zz(BLOCK)", "unknown array"},
		{"scalar target", "!HPF$ DISTRIBUTE s(BLOCK)", "is a scalar"},
		{"rank mismatch", "!HPF$ DISTRIBUTE a(BLOCK)", "rank"},
		{"dup distribute", "!HPF$ DISTRIBUTE a(BLOCK,BLOCK)\n!HPF$ DISTRIBUTE a(CYCLIC,CYCLIC)", "conflicting"},
		{"align and distribute", "!HPF$ ALIGN a WITH b\n!HPF$ DISTRIBUTE a(BLOCK,BLOCK)", "conflicts"},
		{"align self", "!HPF$ ALIGN a WITH a", "itself"},
		{"align cycle", "!HPF$ ALIGN a WITH b\n!HPF$ ALIGN b WITH a", "cycle"},
		{"align shape mismatch", "!HPF$ ALIGN a WITH d", "shapes differ"},
		{"unknown onto", "!HPF$ DISTRIBUTE a(BLOCK,BLOCK) ONTO q", "unknown PROCESSORS"},
		{"dup processors", "!HPF$ PROCESSORS p(2)\n!HPF$ PROCESSORS p(4)", "duplicate"},
		{"bad processors extent", "!HPF$ PROCESSORS q(0)", "not positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := "program t\nreal, array(8,8) :: a, b\nreal, array(4) :: d\nreal :: s\n" +
				c.dirs + "\na = 1.0\nb = a\nd = 2.0\ns = 3.0\nend program t\n"
			mod, tree := lowerFor(t, src)
			err := ApplyDirectives(tree, mod.Syms, nil)
			if err == nil {
				t.Fatalf("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
			if !strings.Contains(err.Error(), "t.f90:") {
				t.Errorf("error %q carries no source position", err)
			}
		})
	}
}
