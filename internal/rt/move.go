package rt

import (
	"fmt"
	"math"

	"f90y/internal/nir"
	"f90y/internal/shape"
)

// generalMove executes a communication-class move with no runtime
// intrinsic: misaligned section copies, gathers and scatters through
// subscripted references, and masked motion between shapes. It is the
// general-router path: one flat router pass of the iteration shape's
// blockwise subgrid, whatever the operands' layouts. Fortran
// assignment semantics hold — the right-hand side is fully evaluated
// before any element is stored.
func (c *Comm) generalMove(over shape.Shape, g nir.GuardedMove) error {
	if over == nil {
		return fmt.Errorf("rt: scalar move routed to communication: %w", ErrBadOperand)
	}
	ext := shape.Extents(over)
	lo := shape.Lowers(over)
	n := shape.Size(over)

	idx := make([]int, len(ext))
	for d := range idx {
		idx[d] = lo[d]
	}
	pos := 0

	ctx := &EvalCtx{Store: c.Store}
	ctx.Local = func(_ shape.Shape, dim int) (int, bool) {
		if dim < 1 || dim > len(idx) {
			return 0, false
		}
		return idx[dim-1], true
	}
	ctx.Elem = func(av nir.AVar) (float64, nir.ScalarKind, error) {
		arr, ok := c.Store.Arrays[av.Name]
		if !ok {
			return 0, 0, fmt.Errorf("rt: undefined array %q: %w", av.Name, ErrUndefined)
		}
		if err := c.owned(arr); err != nil {
			return 0, 0, err
		}
		off, err := c.resolve(av, arr, idx, lo, pos, ctx)
		if err != nil {
			return 0, 0, err
		}
		return arr.Data[off], arr.Kind, nil
	}

	writes := make([]commWrite, 0, n)

	tgtAV, ok := g.Tgt.(nir.AVar)
	if !ok {
		return fmt.Errorf("rt: parallel move target must be an array, got %s: %w", nir.PrintValue(g.Tgt), ErrBadOperand)
	}
	tgtArr, ok := c.Store.Arrays[tgtAV.Name]
	if !ok {
		return fmt.Errorf("rt: undefined array %q: %w", tgtAV.Name, ErrUndefined)
	}
	if err := c.owned(tgtArr); err != nil {
		return err
	}
	tgtArr.Wrote()

	for p := 0; p < n; p++ {
		pos = p
		masked := true
		if !nir.EqualValue(g.Mask, nir.True) {
			mv, _, err := Eval(g.Mask, ctx)
			if err != nil {
				return err
			}
			masked = mv != 0
		}
		if masked {
			v, _, err := Eval(g.Src, ctx)
			if err != nil {
				return err
			}
			off, err := c.resolve(tgtAV, tgtArr, idx, lo, pos, ctx)
			if err != nil {
				return err
			}
			writes = append(writes, commWrite{arr: tgtArr, off: off, val: v})
		}
		// Column-major increment.
		for d := range idx {
			idx[d]++
			if idx[d] < lo[d]+ext[d] {
				break
			}
			idx[d] = lo[d]
		}
	}
	sub := shape.Blockwise(over, c.PEs).SubgridSize()
	return c.deliverWrites(CommRouter, c.Cost.RouterPass(sub), writes)
}

// resolve maps an array reference to the storage offset selected by the
// current iteration point.
func (c *Comm) resolve(av nir.AVar, arr *Array, idx, iterLo []int, pos int, ctx *EvalCtx) (int, error) {
	switch f := av.Field.(type) {
	case nir.Everywhere:
		if arr.Size() < pos {
			return 0, fmt.Errorf("rt: %q too small for move", av.Name)
		}
		return pos, nil
	case nir.Subscript:
		declared, err := evalIndexes(f.Subs, ctx)
		if err != nil {
			return 0, err
		}
		off, err := arr.Offset(declared)
		if err != nil {
			return 0, fmt.Errorf("rt: %q: %w", av.Name, err)
		}
		return off, nil
	case nir.Section:
		declared := make([]int, len(f.Subs))
		k := 0 // iteration-dimension cursor (scalar triplets reduce rank)
		for d, t := range f.Subs {
			switch {
			case t.Scalar:
				v, _, err := Eval(t.Lo, ctx)
				if err != nil {
					return 0, err
				}
				declared[d] = int(math.Trunc(v))
			case t.Full:
				declared[d] = arr.Lo[d] + (idx[k] - iterLo[k])
				k++
			default:
				tlo, _, err := Eval(t.Lo, ctx)
				if err != nil {
					return 0, err
				}
				step := 1.0
				if t.Step != nil {
					step, _, err = Eval(t.Step, ctx)
					if err != nil {
						return 0, err
					}
				}
				declared[d] = int(tlo) + (idx[k]-iterLo[k])*int(step)
				k++
			}
		}
		off, err := arr.Offset(declared)
		if err != nil {
			return 0, fmt.Errorf("rt: %q: %w", av.Name, err)
		}
		return off, nil
	}
	return 0, fmt.Errorf("rt: unsupported field on %q", av.Name)
}
