package workload

// The layout kernel trio: three router-heavy benchmarks whose best data
// distribution differs, used by the swebench -layout-sweep experiment
// (E2) to exercise the !HPF$ distribution plane end to end. Each
// generator takes the directive lines verbatim (e.g. "!HPF$ DISTRIBUTE
// a(CYCLIC)"); an empty slice yields the directive-free program, whose
// compilation must stay bit-identical to the seed pipeline.

import (
	"fmt"
	"strings"
)

// renderDirectives joins directive lines for splicing after the
// declarations (directives are recognized at any statement boundary).
func renderDirectives(directives []string) string {
	if len(directives) == 0 {
		return ""
	}
	return strings.Join(directives, "\n") + "\n"
}

// LayoutTranspose is the transpose ping-pong kernel over an n-by-n grid:
// per iteration two full transposes plus a light grid-local accumulate.
// Under the default blockwise layout every transpose is a general-router
// permutation; a (BLOCK,*) source aligned with a (*,BLOCK) destination
// makes the permutation PE-local.
func LayoutTranspose(n, iters int, directives []string) string {
	return fmt.Sprintf(`program ltrans
integer, parameter :: n = %d
integer, parameter :: iters = %d
real, array(n,n) :: a, b, c
integer it
%sforall (i=1:n, j=1:n) a(i,j) = 0.001*i + 0.000001*j
c = 0.0
do it = 1, iters
  b = transpose(a)
  c = c + 0.5*b
  a = transpose(b) + 0.125*c
end do
end program ltrans
`, n, iters, renderDirectives(directives))
}

// LayoutFFT is the FFT butterfly kernel over an n-vector: each stage
// pairs elements at a doubling stride s via circular shifts. Blockwise
// layouts pay grid wires proportional to s until the router pass is
// cheaper (the late, long-stride stages are routed); a CYCLIC layout
// makes every stride that is a multiple of the PE count a free
// relabeling and routes the rest.
func LayoutFFT(n, stages int, directives []string) string {
	return fmt.Sprintf(`program lfft
integer, parameter :: n = %d
integer, parameter :: stages = %d
real, array(n) :: x, y
integer st, s
%sforall (i=1:n) x(i) = sin(0.001*i)
s = 1
do st = 1, stages
  y = x + 0.5*cshift(x, shift=s)
  x = y - 0.25*cshift(y, shift=-s)
  s = 2*s
end do
end program lfft
`, n, stages, renderDirectives(directives))
}

// LayoutGather is the irregular-gather kernel over an n-vector: a
// deterministic scrambled index vector drives GATHER(a, idx) each
// iteration, followed by a grid-local accumulate. The indices stay
// near-neighbor (offsets in -2..+2, circularly), so a fine-grained
// CYCLIC layout scatters partners across PEs while BLOCK keeps most of
// them home.
func LayoutGather(n, iters int, directives []string) string {
	return fmt.Sprintf(`program lgather
integer, parameter :: n = %d
integer, parameter :: iters = %d
real, array(n) :: a, b
integer, array(n) :: idx
integer it
%sforall (i=1:n) a(i) = 0.001*i
forall (i=1:n) idx(i) = 1 + mod(i - 1 + mod(7*i, 5) - 2 + n, n)
b = 0.0
do it = 1, iters
  b = gather(a, idx)
  a = a + 0.5*b
end do
end program lgather
`, n, iters, renderDirectives(directives))
}
