// Package shape implements the shape domain of NIR (§3.2 of the paper):
// abstract Cartesian iteration spaces used to model both serial and
// parallel iteration. A shape is a point, a (parallel or serial) interval,
// a cross-product of shapes, or a reference to a named domain bound by
// WITH_DOMAIN.
//
// Shapes carry the distinction the paper cares most about: whether
// iteration over a dimension may proceed in parallel (interval) or must be
// serialized (serial_interval). The compiler's domain-blocking
// transformations (§4.2) fuse computations whose shapes are congruent.
package shape

import (
	"fmt"
	"math"
	"strings"
)

// Shape is an abstract iteration space.
type Shape interface {
	isShape()
	String() string
}

// Point is a single index value — the base case of the inductive loop
// model in Fig. 4.
type Point struct {
	V int
}

// Interval is the index range Lo..Hi inclusive. Serial intervals must be
// iterated in order; parallel intervals carry no cross-iteration
// dependencies and may be spread over processors.
//
// Tag distinguishes otherwise-identical iteration spaces: the lowering of
// nested DO loops with equal bounds gives each loop a unique tag so that
// local_under coordinates name their loop unambiguously. Tags participate
// in Equal but not in Congruent (congruence is purely about extent
// structure), and are not printed.
type Interval struct {
	Lo, Hi int
	Serial bool
	Tag    string
}

// Len is the number of indices in the interval: zero when Hi < Lo (a
// zero-trip range such as FORALL (i=10:0) iterates nothing).
func (i Interval) Len() int { return max(0, i.Hi-i.Lo+1) }

// Prod is the cross-product of its dimension shapes (prod_dom in Fig. 6).
type Prod struct {
	Dims []Shape
}

// Ref names a domain bound by WITH_DOMAIN. Lowering names a
// declaration's domain with one in NIR types; no metric query accepts
// an unresolved Ref.
type Ref struct {
	Name string
}

func (Point) isShape()    {}
func (Interval) isShape() {}
func (Prod) isShape()     {}
func (Ref) isShape()      {}

func (p Point) String() string { return fmt.Sprintf("point %d", p.V) }

func (i Interval) String() string {
	ctor := "interval"
	if i.Serial {
		ctor = "serial_interval"
	}
	return fmt.Sprintf("%s(point %d, point %d)", ctor, i.Lo, i.Hi)
}

func (p Prod) String() string {
	parts := make([]string, len(p.Dims))
	for i, d := range p.Dims {
		parts[i] = d.String()
	}
	return "prod_dom[" + strings.Join(parts, ", ") + "]"
}

func (r Ref) String() string { return fmt.Sprintf("domain '%s'", r.Name) }

// Rank is the number of dimensions of a resolved shape. Points have rank 0.
func Rank(s Shape) int {
	switch s := s.(type) {
	case Point:
		return 0
	case Interval:
		return 1
	case Prod:
		r := 0
		for _, d := range s.Dims {
			r += Rank(d)
		}
		return r
	case Ref:
		panic("shape: Rank on unresolved " + s.String())
	}
	return 0
}

// Extents returns the per-dimension lengths of a resolved shape, in
// order, as a slice the caller may keep (nil for a point).
func Extents(s Shape) []int {
	r := Rank(s)
	if r == 0 {
		return nil
	}
	return appendDims(make([]int, 0, r), s, false)
}

// Lowers returns the per-dimension lower bounds of a resolved shape.
func Lowers(s Shape) []int {
	r := Rank(s)
	if r == 0 {
		return nil
	}
	return appendDims(make([]int, 0, r), s, true)
}

// appendDims appends each dimension's extent (or lower bound) to dst.
// The compile-time queries below hand it a stack buffer, so asking a
// question of a shape allocates nothing.
func appendDims(dst []int, s Shape, lowers bool) []int {
	switch s := s.(type) {
	case Interval:
		if lowers {
			return append(dst, s.Lo)
		}
		return append(dst, s.Len())
	case Prod:
		for _, d := range s.Dims {
			dst = appendDims(dst, d, lowers)
		}
	case Ref:
		panic("shape: extents of unresolved " + s.String())
	}
	return dst
}

// Size is the number of points in a resolved shape. Points have size 1.
// A count past the largest int is 0; SizeOK reports it.
func Size(s Shape) int {
	n, _ := SizeOK(s)
	return n
}

// SizeOK is Size, and whether the count fits in an int. The front end
// rejects a declaration whose count does not, so every shape a program
// runs over fits.
func SizeOK(s Shape) (int, bool) {
	switch s := s.(type) {
	case Interval:
		if s.Hi >= s.Lo && s.Hi-s.Lo+1 <= 0 {
			return 0, false
		}
		return s.Len(), true
	case Prod:
		n := 1
		for _, d := range s.Dims {
			m, ok := SizeOK(d)
			if !ok || m != 0 && n > math.MaxInt/m {
				return 0, false
			}
			n *= m
		}
		return n, true
	case Ref:
		panic("shape: Size on unresolved " + s.String())
	}
	return 1, true
}

// Serial reports whether any dimension of a resolved shape is a
// serial_interval, forcing ordered iteration.
func Serial(s Shape) bool {
	switch s := s.(type) {
	case Interval:
		return s.Serial
	case Prod:
		for _, d := range s.Dims {
			if Serial(d) {
				return true
			}
		}
	}
	return false
}

// Equal reports structural equality of two shapes (Refs compare by name).
func Equal(a, b Shape) bool {
	switch a := a.(type) {
	case Point:
		b, ok := b.(Point)
		return ok && a == b
	case Interval:
		b, ok := b.(Interval)
		return ok && a == b
	case Ref:
		b, ok := b.(Ref)
		return ok && a == b
	case Prod:
		b, ok := b.(Prod)
		if !ok || len(a.Dims) != len(b.Dims) {
			return false
		}
		for i := range a.Dims {
			if !Equal(a.Dims[i], b.Dims[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Congruent reports whether two resolved shapes describe the same
// iteration space: identical extents, dimension by dimension, with the
// same serial/parallel classification. Congruence is the relation used by
// static shapechecking (§4.1) and by the domain-blocking optimizer (§4.2):
// two MOVEs may be fused only over congruent shapes.
func Congruent(a, b Shape) bool {
	// Ranks past the buffers (none occur) spill to the heap, still correct.
	var bufA, bufB [8]int
	ea, eb := appendDims(bufA[:0], a, false), appendDims(bufB[:0], b, false)
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return Serial(a) == Serial(b)
}

// Of builds a parallel shape from extents with lower bound 1 in each
// dimension: Of(128) = interval(1,128); Of(128,64) = prod of intervals.
func Of(extents ...int) Shape {
	if len(extents) == 1 {
		return Interval{Lo: 1, Hi: extents[0]}
	}
	dims := make([]Shape, len(extents))
	for i, e := range extents {
		dims[i] = Interval{Lo: 1, Hi: e}
	}
	return Prod{Dims: dims}
}
