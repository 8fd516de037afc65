// Package opt implements the NIR optimization stage of the Fortran-90-Y
// compiler (§4.2): source-to-source transformations over NIR whose object
// is to produce programs in which computations over like shapes are
// blocked as much as possible, forming computation phases punctuated by
// communication.
//
// Three passes are provided:
//
//   - classification of each action into computation, communication, or
//     host (front-end) phases;
//   - mask padding (Fig. 10): aligned array-section assignments become
//     full-shape masked moves, enlarging the pool of sibling computations;
//   - domain blocking (Fig. 9): like-shape pointwise moves are reordered
//     past independent actions and fused into single computation blocks,
//     amortizing PEAC call overhead and widening register-allocation scope.
package opt

import (
	"strings"

	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/shape"
)

// Class partitions actions by where they execute (§5.1).
type Class int

// Phase classes.
const (
	// Compute actions are grid-local pointwise moves over a parallel
	// shape: they compile to PEAC node procedures.
	Compute Class = iota
	// Comm actions move data between shapes or alignments: they become
	// CM runtime library calls issued from the host.
	Comm
	// Host actions are serial control flow, scalar code, and I/O: they
	// compile to front-end (SPARC) code.
	Host
)

func (c Class) String() string {
	switch c {
	case Compute:
		return "compute"
	case Comm:
		return "comm"
	default:
		return "host"
	}
}

// Classifier answers phase-classification queries against a module's
// symbol table.
type Classifier struct {
	Syms *lower.SymTab
	// Calls counts the moves classified, for the opt/classify-calls counter.
	Calls int
}

// Classify assigns an action to its phase class.
func (c *Classifier) Classify(a nir.Imp) Class {
	if m, ok := a.(nir.Move); ok {
		return c.ClassifyMove(m).Class
	}
	return Host
}

// Verdict is what the passes ask of one move: its phase class and, for
// a compute move, the explicit data distribution its arrays share.
// Arrays with the default blockwise distribution are wildcards — the
// compiler materializes their values in the partner's layout — so they
// never constrain Dist.
type Verdict struct {
	Class Class
	Dist  shape.Distribution
}

// sections is what the same walk learns for PadMove: the move's first
// array section and the declared shape its sectioned arrays share.
type sections struct {
	found bool
	first nir.Section
	full  shape.Shape
}

// ClassifyMove decides a move's class and distribution.
func (c *Classifier) ClassifyMove(m nir.Move) Verdict {
	v, _ := c.classifyMove(m)
	return v
}

// classifyMove is the one walk over a move's masks, sources and targets
// behind every classification query.
func (c *Classifier) classifyMove(m nir.Move) (Verdict, sections) {
	c.Calls++
	host := m.Over == nil || shape.Serial(m.Over)
	var (
		comm, inSrc   bool // a cm_ runtime call in a source
		local         = true
		sawEverywhere bool
		sec           sections
		dist          shape.Distribution
		distOK        = true
	)
	visit := func(x nir.Value) {
		if fc, ok := x.(nir.FcnCall); ok {
			// Runtime intrinsic calls (cm_cshift, cm_reduce_sum, ...) are
			// communication regardless of shape.
			comm = comm || inSrc && strings.HasPrefix(fc.Name, "cm_")
			return
		}
		av, ok := x.(nir.AVar)
		if !ok || host {
			return
		}
		// A parallel move is grid-local (Compute) when every array
		// reference is pointwise under the common shape: everywhere
		// references to congruent arrays, or identically-aligned sections
		// of a single declared shape.
		sym, ok := c.Syms.Lookup(av.Name)
		if !ok || sym.Shape == nil {
			local = false
			return
		}
		// Arrays carrying two different explicit !HPF$ distributions are
		// not co-resident even when their shapes agree: the move needs a
		// router realignment.
		if !sym.Dist.IsDefault() {
			if dist.IsDefault() {
				dist = sym.Dist
			} else if !dist.Equal(sym.Dist, shape.Rank(sym.Shape)) {
				distOK = false
			}
		}
		switch f := av.Field.(type) {
		case nir.Everywhere:
			sawEverywhere = true
			if !shape.Congruent(sym.Shape, m.Over) {
				local = false
			}
		case nir.Section:
			for _, t := range f.Subs {
				if t.Scalar {
					local = false // rank reduction: alignment broken
				}
			}
			if !sec.found {
				sec = sections{found: true, first: f, full: sym.Shape}
				return
			}
			// The sectioned arrays must all share a declared shape.
			if !shape.Congruent(sec.full, sym.Shape) || !sameSection(sec.first, f) {
				local = false
			}
		case nir.Subscript:
			local = false // gather/scatter: general communication
		}
	}
	for _, g := range m.Moves {
		nir.WalkValues(g.Mask, visit)
		inSrc = true
		nir.WalkValues(g.Src, visit)
		inSrc = false
		nir.WalkValues(g.Tgt, visit)
	}
	cl := Compute
	switch {
	case comm:
		cl = Comm
	case host:
		cl = Host
	case !local, !distOK:
		cl = Comm
	case sec.found && sawEverywhere && !shape.Congruent(m.Over, sec.full):
		// Aligned sections mixed with everywhere refs over the (smaller)
		// section space are misaligned with the full arrays; only
		// all-section moves stay local, unless the section space equals
		// the full shape. (Every everywhere ref is congruent with m.Over
		// here, so one comparison speaks for all of them.)
		cl = Comm
	}
	return Verdict{Class: cl, Dist: dist}, sec
}

func sameSection(a, b nir.Section) bool {
	if len(a.Subs) != len(b.Subs) {
		return false
	}
	for i := range a.Subs {
		ta, tb := a.Subs[i], b.Subs[i]
		if ta.Full != tb.Full || ta.Scalar != tb.Scalar {
			return false
		}
		if ta.Full {
			continue
		}
		if !nir.EqualValue(ta.Lo, tb.Lo) || !nir.EqualValue(ta.Hi, tb.Hi) {
			return false
		}
		sa, sb := ta.Step, tb.Step
		if (sa == nil) != (sb == nil) {
			return false
		}
		if sa != nil && !nir.EqualValue(sa, sb) {
			return false
		}
	}
	return true
}
