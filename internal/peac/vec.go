package peac

import "unsafe"

// Body is a vector body of a lane loop: dst[i] = f(x[i], y[i], z[i]) for
// i < n, n a positive multiple of 8, rounding exactly as the Go loop
// does. It loads every lane of an iteration before storing any, so it
// may write a source it was handed exactly (fsinv aV1 aV1), but not one
// that overlaps dst at another address.
type Body func(dst, x, y, z *float64, n int)

// The bodies' op order, which is also cm2's fuseIndex order, and the
// pair side on which the first instruction's result is the second's
// left operand.
const (
	bodyAdd = iota
	bodySub
	bodyMul
	bodyDiv

	pairLeft = 1
)

// PairBody returns the vector body of the fused pair t = x op1 y, then
// z op2 t (side 0) or t op2 z (side 1), with op1 and op2 indexed add,
// sub, mul, div; nil when the host has no vector bodies.
func PairBody(op1, op2, side int) Body { return pairBodies[op1][op2][side] }

// Vector returns the lane loop an op runs: scalar, its Go loop, when
// the host has no vector bodies or body is nil; otherwise a loop that
// runs body over the first len(dst)&^7 lanes and scalar over the rest.
// A call whose sources are shorter than dst, or overlap dst without
// starting where it starts, runs scalar whole: the Go loop keeps its
// bounds checks, and where a source lane is one an earlier lane wrote,
// its element-by-element order is what the op computes.
func Vector(body Body, scalar LaneFunc) LaneFunc {
	if !hasVector || body == nil {
		return scalar
	}
	return func(dst, x, y, z []float64) {
		n := len(dst) &^ 7
		if n == 0 || len(x) < len(dst) || len(y) < len(dst) || len(z) < len(dst) ||
			overlaps(dst, x) || overlaps(dst, y) || overlaps(dst, z) {
			scalar(dst, x, y, z)
			return
		}
		body(&dst[0], &x[0], &y[0], &z[0], n)
		if n < len(dst) {
			scalar(dst[n:], x[n:], y[n:], z[n:])
		}
	}
}

// overlaps reports whether the first len(dst) lanes of s share memory
// with dst at a different start address; s is at least as long as dst
// and dst is not empty.
func overlaps(dst, s []float64) bool {
	d, p := uintptr(unsafe.Pointer(&dst[0])), uintptr(unsafe.Pointer(&s[0]))
	size := uintptr(len(dst)) * 8
	return d != p && p < d+size && d < p+size
}
