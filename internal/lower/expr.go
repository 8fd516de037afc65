package lower

import (
	"f90y/internal/ast"
	"f90y/internal/nir"
	"f90y/internal/shape"
	"f90y/internal/source"
)

// tv is a typed, shaped NIR value: the result of the value-domain semantic
// equation. Shape nil means scalar.
type tv struct {
	v     nir.Value
	kind  nir.ScalarKind
	shape shape.Shape
}

func (t tv) scalar() bool { return t.shape == nil }

// badTV is the error recovery value.
var badTV = tv{v: nir.IntConst(0), kind: nir.Integer32}

// promote returns the common numeric kind of two operands:
// integer_32 < float_32 < float_64.
func promote(a, b nir.ScalarKind) nir.ScalarKind {
	rank := func(k nir.ScalarKind) int {
		switch k {
		case nir.Integer32:
			return 0
		case nir.Float32:
			return 1
		default:
			return 2
		}
	}
	if rank(a) >= rank(b) {
		return a
	}
	return b
}

// convert wraps v with the conversion operator taking it from kind 'from'
// to kind 'to', or returns it unchanged when the kinds agree.
func convert(v nir.Value, from, to nir.ScalarKind) nir.Value {
	if from == to {
		return v
	}
	switch to {
	case nir.Float64:
		return nir.Unary{Op: nir.ToFloat64, X: v}
	case nir.Float32:
		return nir.Unary{Op: nir.ToFloat32, X: v}
	case nir.Integer32:
		return nir.Unary{Op: nir.ToInteger32, X: v}
	}
	return v
}

// unifyShapes shapechecks two operand shapes for a direct computation:
// scalar broadcasts against anything; two fields must be congruent. It
// returns the result shape.
func (lw *lowerer) unifyShapes(a, b shape.Shape, pos source.Pos) shape.Shape {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case shape.Congruent(a, b):
		return a
	default:
		lw.rep.Errorf("shapecheck", pos, "shapes disagree in direct computation: %s vs %s", a, b)
		return a
	}
}

var astBin = map[ast.BinOp]nir.BinOp{
	ast.Add: nir.Plus, ast.Sub: nir.Minus, ast.Mul: nir.Mul, ast.Div: nir.Div,
	ast.Pow: nir.Pow, ast.Eq: nir.Equals, ast.Ne: nir.NotEquals,
	ast.Lt: nir.Less, ast.Le: nir.LessEq, ast.Gt: nir.Greater, ast.Ge: nir.GreaterEq,
	ast.And: nir.AndOp, ast.Or: nir.OrOp, ast.Eqv: nir.EqvOp, ast.Neqv: nir.NeqvOp,
}

// lowerExpr is the value-domain semantic equation: it maps a source
// expression to a typed NIR value, emitting pre-actions (temporary
// computations for communication intrinsics, reductions, MERGE) onto
// lw.pre.
func (lw *lowerer) lowerExpr(e ast.Expr) tv {
	switch e := e.(type) {
	case *ast.IntLit:
		return tv{v: nir.IntConst(e.Value), kind: nir.Integer32}
	case *ast.RealLit:
		if e.Double {
			return tv{v: nir.FloatConst(e.Value), kind: nir.Float64}
		}
		return tv{v: nir.Float32Const(e.Value), kind: nir.Float32}
	case *ast.LogicalLit:
		return tv{v: nir.BoolConst(e.Value), kind: nir.Logical32}
	case *ast.StringLit:
		return tv{v: nir.StrConst{S: e.Value}, kind: nir.Logical32}
	case *ast.Ident:
		return lw.lowerIdent(e)
	case *ast.Unary:
		return lw.lowerUnary(e)
	case *ast.Binary:
		return lw.lowerBinary(e)
	case *ast.Index:
		return lw.lowerIndex(e)
	}
	lw.rep.Errorf("lower", e.Position(), "unsupported expression %T", e)
	return badTV
}

func (lw *lowerer) lowerIdent(e *ast.Ident) tv {
	// Loop and FORALL indexes are substituted from the index environment.
	if v, ok := lw.idxEnv[e.Name]; ok {
		return tv{v: v, kind: nir.Integer32}
	}
	sym, ok := lw.syms.Lookup(e.Name)
	if !ok {
		lw.rep.Errorf("typecheck", e.Pos, "undeclared identifier %q", e.Name)
		return badTV
	}
	if sym.Param {
		return tv{v: sym.Const.toValue(), kind: sym.Const.Kind}
	}
	if sym.Shape != nil {
		return tv{v: nir.AVar{Name: sym.Name, Field: nir.Everywhere{}}, kind: sym.Kind, shape: sym.Shape}
	}
	return tv{v: nir.SVar{Name: sym.Name}, kind: sym.Kind}
}

func (lw *lowerer) lowerUnary(e *ast.Unary) tv {
	x := lw.lowerExpr(e.X)
	switch e.Op {
	case ast.Neg:
		if x.kind == nir.Logical32 {
			lw.rep.Errorf("typecheck", e.Pos, "negation of logical value")
			return badTV
		}
		return tv{v: nir.Unary{Op: nir.Neg, X: x.v}, kind: x.kind, shape: x.shape}
	case ast.Not:
		if x.kind != nir.Logical32 {
			lw.rep.Errorf("typecheck", e.Pos, ".not. applied to non-logical value")
			return badTV
		}
		return tv{v: nir.Unary{Op: nir.NotU, X: x.v}, kind: x.kind, shape: x.shape}
	default: // unary plus
		return x
	}
}

func (lw *lowerer) lowerBinary(e *ast.Binary) tv {
	l := lw.lowerExpr(e.L)
	r := lw.lowerExpr(e.R)
	op := astBin[e.Op]
	sh := lw.unifyShapes(l.shape, r.shape, e.Pos)

	switch {
	case op.Logical():
		if l.kind != nir.Logical32 || r.kind != nir.Logical32 {
			lw.rep.Errorf("typecheck", e.Pos, "%s requires logical operands", e.Op)
			return badTV
		}
		return tv{v: nir.Binary{Op: op, L: l.v, R: r.v}, kind: nir.Logical32, shape: sh}
	case op.Comparison():
		if l.kind == nir.Logical32 || r.kind == nir.Logical32 {
			lw.rep.Errorf("typecheck", e.Pos, "%s requires numeric operands", e.Op)
			return badTV
		}
		k := promote(l.kind, r.kind)
		return tv{v: nir.Binary{Op: op, L: convert(l.v, l.kind, k), R: convert(r.v, r.kind, k)},
			kind: nir.Logical32, shape: sh}
	default: // arithmetic
		if l.kind == nir.Logical32 || r.kind == nir.Logical32 {
			lw.rep.Errorf("typecheck", e.Pos, "arithmetic on logical value")
			return badTV
		}
		// Integer exponents stay unconverted: x**2 is repeated
		// multiplication, not exp/log (and the PE compiler strength-
		// reduces small constant powers).
		if op == nir.Pow && r.kind == nir.Integer32 {
			return tv{v: nir.Binary{Op: nir.Pow, L: l.v, R: r.v}, kind: l.kind, shape: sh}
		}
		k := promote(l.kind, r.kind)
		return tv{v: nir.Binary{Op: op, L: convert(l.v, l.kind, k), R: convert(r.v, r.kind, k)},
			kind: k, shape: sh}
	}
}

// lowerIndex handles NAME(...): an array element, an array section, or an
// intrinsic call, disambiguated against the symbol table.
func (lw *lowerer) lowerIndex(e *ast.Index) tv {
	if sym, ok := lw.syms.Lookup(e.Name); ok && !sym.Param {
		return lw.lowerArrayRef(e, sym)
	}
	if fn, ok := intrinsics[e.Name]; ok {
		return fn(lw, e)
	}
	lw.rep.Errorf("typecheck", e.Pos, "%q is not an array or known intrinsic", e.Name)
	return badTV
}

// lowerArrayRef lowers A(subscripts): either a scalar element reference
// (all subscripts single scalars) or a section.
func (lw *lowerer) lowerArrayRef(e *ast.Index, sym *Symbol) tv {
	if sym.Shape == nil {
		lw.rep.Errorf("typecheck", e.Pos, "%q is scalar and cannot be subscripted", e.Name)
		return badTV
	}
	rank := shape.Rank(sym.Shape)
	if len(e.Subs) != rank {
		lw.rep.Errorf("shapecheck", e.Pos, "%q has rank %d but %d subscripts given", e.Name, rank, len(e.Subs))
		return badTV
	}
	for i, k := range e.Keys {
		if k != "" {
			lw.rep.Errorf("typecheck", e.Pos, "keyword argument %q invalid in array reference (subscript %d)", k, i+1)
		}
	}

	allSingle := true
	for _, s := range e.Subs {
		if !s.Single {
			allSingle = false
		}
	}
	if allSingle {
		subs := make([]nir.Value, rank)
		for i, s := range e.Subs {
			sv := lw.lowerExpr(s.Lo)
			if !sv.scalar() || sv.kind != nir.Integer32 {
				lw.rep.Errorf("typecheck", s.Lo.Position(), "subscript %d of %q must be a scalar integer", i+1, e.Name)
			}
			subs[i] = sv.v
		}
		return tv{v: nir.AVar{Name: sym.Name, Field: nir.Subscript{Subs: subs}}, kind: sym.Kind}
	}

	// Section reference: build triplets and the section iteration shape.
	sec, secShape := lw.lowerSection(e, sym)
	return tv{v: nir.AVar{Name: sym.Name, Field: sec}, kind: sym.Kind, shape: secShape}
}

// lowerSection builds the Section field and its iteration shape for a
// section reference. Triplet bounds must be integer constants in this
// subset (runtime section bounds would defeat static shapechecking).
func (lw *lowerer) lowerSection(e *ast.Index, sym *Symbol) (nir.Section, shape.Shape) {
	declExt := shape.Extents(sym.Shape)
	declLo := sym.Lowers
	subs := make([]nir.Triplet, len(e.Subs))
	var iterDims []shape.Shape
	for i, s := range e.Subs {
		lo := declLo[i]
		hi := declLo[i] + declExt[i] - 1
		if s.Single {
			sv := lw.lowerExpr(s.Lo)
			if !sv.scalar() || sv.kind != nir.Integer32 {
				lw.rep.Errorf("typecheck", s.Lo.Position(), "subscript %d of %q must be a scalar integer", i+1, e.Name)
			}
			subs[i] = nir.Triplet{Scalar: true, Lo: sv.v}
			continue
		}
		if s.Lo == nil && s.Hi == nil && s.Step == nil {
			subs[i] = nir.Triplet{Full: true}
			iterDims = append(iterDims, shape.Interval{Lo: lo, Hi: hi})
			continue
		}
		clo, chi, cstep := lo, hi, 1
		okLo, okHi, okStep := true, true, true
		if s.Lo != nil {
			clo, okLo = lw.evalConstInt(s.Lo, "section lower bound")
		}
		if s.Hi != nil {
			chi, okHi = lw.evalConstInt(s.Hi, "section upper bound")
		}
		if s.Step != nil {
			cstep, okStep = lw.evalConstInt(s.Step, "section stride")
			if okStep && cstep == 0 {
				lw.rep.Errorf("shapecheck", e.Pos, "zero section stride")
				cstep, okStep = 1, false
			}
		}
		count := 0
		if cstep > 0 && chi >= clo {
			count = (chi-clo)/cstep + 1
		} else if cstep < 0 && chi <= clo {
			count = (clo-chi)/(-cstep) + 1
		}
		switch {
		case !okLo || !okHi || !okStep:
			// The bound that is not constant, or the zero stride, has
			// its own error.
			count = max(count, 1)
		case count <= 0:
			lw.rep.Errorf("shapecheck", e.Pos, "empty section %d:%d:%d of %q", clo, chi, cstep, e.Name)
			count = 1
		default:
			// The first and last selected elements bound the rest.
			for _, x := range [2]int{clo, clo + (count-1)*cstep} {
				if x < lo || x > hi {
					lw.rep.Errorf("shapecheck", e.Pos, "section %d:%d:%d of %q: subscript %d out of bounds %d:%d in dimension %d",
						clo, chi, cstep, e.Name, x, lo, hi, i+1)
					break
				}
			}
		}
		t := nir.Triplet{Lo: nir.IntConst(int64(clo)), Hi: nir.IntConst(int64(chi))}
		if cstep != 1 {
			t.Step = nir.IntConst(int64(cstep))
		}
		subs[i] = t
		iterDims = append(iterDims, shape.Interval{Lo: 1, Hi: count})
	}
	var iter shape.Shape
	switch len(iterDims) {
	case 0:
		iter = nil // fully scalar after rank reduction — caller treats as element
	case 1:
		iter = iterDims[0]
	default:
		iter = shape.Prod{Dims: iterDims}
	}
	return nir.Section{Subs: subs}, iter
}
