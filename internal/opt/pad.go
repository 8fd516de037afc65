package opt

import (
	"f90y/internal/nir"
	"f90y/internal/shape"
)

// padMove rewrites an aligned section move into a full-shape masked move
// (Fig. 10): the compiler "pads computations over array subsections to
// full-array operations, increasing the pool of sibling computations which
// could be implemented in the same computation block". The generated mask
// tests the local coordinate matrix against the section's bounds and
// stride (the BINARY(Equals, BINARY(Mod, ...)) encoding of Fig. 10). The
// move's classification walk (classifyMove) has already described it.
//
// padMove returns the padded move and true, or the original move and
// false when padding does not apply (not a compute move, no sections,
// negative strides, or rank-reducing subscripts).
func padMove(m nir.Move, v Verdict, secs sections) (nir.Move, bool) {
	if v.Class != Compute || !secs.found {
		return m, false
	}
	// All sections are identical (Compute classification guarantees it);
	// the first is the representative.
	full, sec := secs.full, secs.first

	declLo := shape.Lowers(full)
	declExt := shape.Extents(full)
	var mask nir.Value
	and := func(t nir.Value) {
		if mask == nil {
			mask = t
		} else {
			mask = nir.Binary{Op: nir.AndOp, L: mask, R: t}
		}
	}
	for d, t := range sec.Subs {
		if t.Full {
			continue
		}
		lo, lok := constInt(t.Lo)
		hi, hok := constInt(t.Hi)
		step := 1
		if t.Step != nil {
			s, sok := constInt(t.Step)
			if !sok {
				return m, false
			}
			step = s
		}
		if !lok || !hok || step <= 0 {
			return m, false // dynamic or negative-stride sections stay communication
		}
		coord := nir.LocalUnder{S: full, Dim: d + 1}
		if lo != declLo[d] {
			and(nir.Binary{Op: nir.GreaterEq, L: coord, R: nir.IntConst(int64(lo))})
		}
		if hi != declLo[d]+declExt[d]-1 {
			and(nir.Binary{Op: nir.LessEq, L: coord, R: nir.IntConst(int64(hi))})
		}
		if step > 1 {
			and(nir.Binary{Op: nir.Equals,
				L: nir.Binary{Op: nir.Mod,
					L: nir.Binary{Op: nir.Minus, L: coord, R: nir.IntConst(int64(lo))},
					R: nir.IntConst(int64(step))},
				R: nir.IntConst(0)})
		}
	}
	if mask == nil {
		mask = nir.True
	}

	out := nir.Move{Over: full, Moves: make([]nir.GuardedMove, len(m.Moves)), Pos: m.Pos}
	toEverywhere := func(v nir.Value) nir.Value {
		return nir.RewriteValues(v, func(x nir.Value) nir.Value {
			if av, ok := x.(nir.AVar); ok {
				if _, isSec := av.Field.(nir.Section); isSec {
					return nir.AVar{Name: av.Name, Field: nir.Everywhere{}}
				}
			}
			return x
		})
	}
	for i, g := range m.Moves {
		ng := nir.GuardedMove{
			Src: toEverywhere(g.Src),
			Tgt: toEverywhere(g.Tgt),
			Pos: g.Pos,
		}
		oldMask := toEverywhere(g.Mask)
		if nir.EqualValue(oldMask, nir.True) {
			ng.Mask = mask
		} else if nir.EqualValue(mask, nir.True) {
			ng.Mask = oldMask
		} else {
			ng.Mask = nir.Binary{Op: nir.AndOp, L: mask, R: oldMask}
		}
		out.Moves[i] = ng
	}
	return out, true
}

func constInt(v nir.Value) (int, bool) {
	c, ok := v.(nir.Const)
	if !ok || c.Type.Kind != nir.Integer32 {
		return 0, false
	}
	return int(c.I), true
}
