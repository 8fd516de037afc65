package lower

import (
	"fmt"

	"f90y/internal/ast"
	"f90y/internal/nir"
	"f90y/internal/shape"
	"f90y/internal/source"
)

// lowerer carries the state of one lowering run.
type lowerer struct {
	rep       *source.Reporter
	syms      *SymTab
	tempCount int
	loopCount int
	idxEnv    map[string]nir.Value // DO/FORALL index substitutions
	pre       []nir.Imp            // pending pre-actions for the current statement
}

// Lower runs the semantic lowering stage over one parsed program unit,
// producing a typechecked, shapechecked NIR module.
func Lower(prog *ast.Program) (*Module, error) {
	var rep source.Reporter
	lw := &lowerer{rep: &rep, syms: NewSymTab(), idxEnv: map[string]nir.Value{}}

	init := lw.lowerDecls(prog.Decls)
	body := lw.lowerStmts(prog.Body)
	body = nir.Seq(nir.Seq(init...), body)

	if rep.HasErrors() {
		return nil, rep.Err()
	}

	mod := &Module{Name: prog.Name, Body: body, Syms: lw.syms}
	mod.Prog = lw.wrap(body, mod)
	return mod, nil
}

// lowerDecls is the declaration-domain semantic equation. It populates the
// symbol table and returns initialization actions for initialized
// non-PARAMETER entities.
func (lw *lowerer) lowerDecls(decls []*ast.Decl) []nir.Imp {
	var init []nir.Imp
	for _, d := range decls {
		kind := baseKind(d.Kind)
		sym := &Symbol{Name: d.Name, Kind: kind, Param: d.Param}

		if d.Param {
			if d.Dims != nil {
				lw.rep.Errorf("lower", d.Pos, "array PARAMETER %q not supported", d.Name)
			}
			if d.Init == nil {
				lw.rep.Errorf("lower", d.Pos, "PARAMETER %q lacks a value", d.Name)
				continue
			}
			c := lw.evalConst(d.Init)
			if !c.OK {
				lw.rep.Errorf("lower", d.Pos, "PARAMETER %q value is not constant", d.Name)
				continue
			}
			// A parameter's value adopts its declared kind.
			sym.Const = coerceConst(c, kind)
			sym.Type = nir.Scalar{Kind: kind}
			if !lw.syms.Define(sym) {
				lw.rep.Errorf("lower", d.Pos, "duplicate declaration of %q", d.Name)
			}
			continue
		}

		if d.Dims == nil {
			sym.Type = nir.Scalar{Kind: kind}
		} else {
			var dims []shape.Shape
			var lowers []int
			for _, ext := range d.Dims {
				lo := 1
				if ext.Lo != nil {
					lo, _ = lw.evalConstInt(ext.Lo, "array lower bound")
				}
				hi, _ := lw.evalConstInt(ext.Hi, "array upper bound")
				if hi < lo {
					lw.rep.Errorf("lower", d.Pos, "array %q has empty extent %d:%d", d.Name, lo, hi)
					hi = lo
				}
				dims = append(dims, shape.Interval{Lo: lo, Hi: hi})
				lowers = append(lowers, lo)
			}
			if len(dims) == 1 {
				sym.Shape = dims[0]
			} else {
				sym.Shape = shape.Prod{Dims: dims}
			}
			if _, ok := shape.SizeOK(sym.Shape); !ok {
				lw.rep.Errorf("lower", d.Pos, "array %q has more elements than an int can count", d.Name)
			}
			sym.Lowers = lowers
			sym.Type = nir.DField{Shape: sym.Shape, Elem: nir.Scalar{Kind: kind}}
		}
		if !lw.syms.Define(sym) {
			lw.rep.Errorf("lower", d.Pos, "duplicate declaration of %q", d.Name)
			continue
		}

		if d.Init != nil {
			lw.pre = nil
			rhs := lw.lowerExpr(d.Init)
			mv := lw.buildAssign(sym, nil, rhs, nil, d.Pos)
			init = append(init, lw.takePre()...)
			init = append(init, mv)
		}
	}
	return init
}

func baseKind(k ast.BaseKind) nir.ScalarKind {
	switch k {
	case ast.Integer:
		return nir.Integer32
	case ast.Real:
		return nir.Float32
	case ast.Double:
		return nir.Float64
	default:
		return nir.Logical32
	}
}

func coerceConst(c constVal, kind nir.ScalarKind) constVal {
	if c.Kind == kind {
		return c
	}
	out := constVal{Kind: kind, OK: true}
	switch kind {
	case nir.Integer32:
		out.I = int64(c.asFloat())
	case nir.Float32, nir.Float64:
		out.F = c.asFloat()
	case nir.Logical32:
		out.B = c.B
	}
	return out
}

func (lw *lowerer) takePre() []nir.Imp {
	p := lw.pre
	lw.pre = nil
	return p
}

// lowerStmts is the imperative-domain semantic equation over a statement
// list: each statement becomes an action, prefixed by the pre-actions its
// expressions demanded.
func (lw *lowerer) lowerStmts(stmts []ast.Stmt) nir.Imp {
	var actions []nir.Imp
	for _, s := range stmts {
		lw.pre = nil
		a := lw.lowerStmt(s)
		actions = append(actions, lw.takePre()...)
		actions = append(actions, a)
	}
	return nir.Seq(actions...)
}

func (lw *lowerer) lowerStmt(s ast.Stmt) nir.Imp {
	switch s := s.(type) {
	case *ast.Assign:
		return lw.lowerAssign(s, nil, nil)
	case *ast.If:
		return lw.lowerIf(s)
	case *ast.DoLoop:
		return lw.lowerDo(s)
	case *ast.DoWhile:
		cond := lw.lowerExpr(s.Cond)
		if !cond.scalar() || cond.kind != nir.Logical32 {
			lw.rep.Errorf("typecheck", s.Pos, "DO WHILE condition must be a scalar logical")
		}
		pre := lw.takePre()
		body := lw.lowerStmts(s.Body)
		// Re-evaluate any condition temporaries at the loop bottom.
		return nir.Seq(nir.Seq(pre...), nir.While{Cond: cond.v, Body: nir.Seq(body, nir.Seq(clone(pre)...))})
	case *ast.Where:
		return lw.lowerWhere(s)
	case *ast.Forall:
		return lw.lowerForall(s)
	case *ast.Print:
		return lw.lowerPrint(s)
	case *ast.Call:
		lw.rep.Errorf("lower", s.Pos, "user subroutines are outside the prototype's subset (CALL %s)", s.Name)
		return nir.Skip{}
	case *ast.Continue:
		return nir.Skip{}
	case *ast.Stop:
		return nir.CallImp{Name: "rt_stop"}
	}
	lw.rep.Errorf("lower", s.Position(), "unsupported statement %T", s)
	return nir.Skip{}
}

// clone shallow-copies an action list (pre-action re-emission).
func clone(in []nir.Imp) []nir.Imp {
	out := make([]nir.Imp, len(in))
	copy(out, in)
	return out
}

// lowerAssign lowers LHS = RHS under an optional mask (from WHERE).
func (lw *lowerer) lowerAssign(a *ast.Assign, mask nir.Value, maskShape shape.Shape) nir.Imp {
	rhs := lw.lowerExpr(a.RHS)
	switch lhs := a.LHS.(type) {
	case *ast.Ident:
		if _, isIdx := lw.idxEnv[lhs.Name]; isIdx {
			lw.rep.Errorf("typecheck", lhs.Pos, "assignment to loop index %q", lhs.Name)
			return nir.Skip{}
		}
		sym, ok := lw.syms.Lookup(lhs.Name)
		if !ok {
			lw.rep.Errorf("typecheck", lhs.Pos, "undeclared identifier %q", lhs.Name)
			return nir.Skip{}
		}
		if sym.Param {
			lw.rep.Errorf("typecheck", lhs.Pos, "assignment to PARAMETER %q", lhs.Name)
			return nir.Skip{}
		}
		return lw.buildAssign(sym, nil, rhs, lw.checkedMask(mask, maskShape, sym.Shape, a.Pos), a.Pos)
	case *ast.Index:
		sym, ok := lw.syms.Lookup(lhs.Name)
		if !ok {
			lw.rep.Errorf("typecheck", lhs.Pos, "undeclared identifier %q", lhs.Name)
			return nir.Skip{}
		}
		tgt := lw.lowerArrayRef(lhs, sym)
		av, ok := tgt.v.(nir.AVar)
		if !ok {
			return nir.Skip{}
		}
		return lw.buildAssignTo(av, tgt.shape, sym.Kind, rhs, lw.checkedMask(mask, maskShape, tgt.shape, a.Pos), a.Pos)
	}
	lw.rep.Errorf("typecheck", a.Pos, "invalid assignment target")
	return nir.Skip{}
}

// checkedMask shapechecks a WHERE mask against the assignment's iteration
// shape.
func (lw *lowerer) checkedMask(mask nir.Value, maskShape, tgtShape shape.Shape, pos source.Pos) nir.Value {
	if mask == nil {
		return nil
	}
	if tgtShape == nil {
		lw.rep.Errorf("shapecheck", pos, "scalar assignment inside WHERE")
		return mask
	}
	if maskShape != nil && !shape.Congruent(maskShape, tgtShape) {
		lw.rep.Errorf("shapecheck", pos, "WHERE mask shape %s does not match assignment shape %s", maskShape, tgtShape)
	}
	return mask
}

// buildAssign assembles the MOVE for an assignment to a whole symbol.
func (lw *lowerer) buildAssign(sym *Symbol, _ nir.Field, rhs tv, mask nir.Value, pos source.Pos) nir.Imp {
	var tgt nir.Value
	if sym.Shape == nil {
		tgt = nir.SVar{Name: sym.Name}
	} else {
		tgt = nir.AVar{Name: sym.Name, Field: nir.Everywhere{}}
	}
	if av, ok := tgt.(nir.AVar); ok {
		return lw.buildAssignTo(av, sym.Shape, sym.Kind, rhs, mask, pos)
	}
	// Scalar target.
	if !rhs.scalar() {
		lw.rep.Errorf("shapecheck", pos, "array value assigned to scalar %q", sym.Name)
		return nir.Skip{}
	}
	src := lw.convertChecked(rhs, sym.Kind, pos)
	g := nir.GuardedMove{Mask: nir.True, Src: src, Tgt: tgt, Pos: pos}
	if mask != nil {
		g.Mask = mask
	}
	return nir.Move{Moves: []nir.GuardedMove{g}, Pos: pos}
}

// buildAssignTo assembles the MOVE for an assignment to an array target
// reference (everywhere, element, or section).
func (lw *lowerer) buildAssignTo(tgt nir.AVar, tgtShape shape.Shape, tgtKind nir.ScalarKind, rhs tv, mask nir.Value, pos source.Pos) nir.Imp {
	if tgtShape == nil {
		// Element assignment: A(i,j) = scalar.
		if !rhs.scalar() {
			lw.rep.Errorf("shapecheck", pos, "array value assigned to array element")
			return nir.Skip{}
		}
	} else if !rhs.scalar() && !shape.Congruent(rhs.shape, tgtShape) {
		lw.rep.Errorf("shapecheck", pos, "shapes disagree in assignment: %s = %s", tgtShape, rhs.shape)
	}
	src := lw.convertChecked(rhs, tgtKind, pos)
	g := nir.GuardedMove{Mask: nir.True, Src: src, Tgt: tgt, Pos: pos}
	if mask != nil {
		g.Mask = mask
	}
	return nir.Move{Over: tgtShape, Moves: []nir.GuardedMove{g}, Pos: pos}
}

// convertChecked inserts a kind conversion for the assignment, rejecting
// logical/numeric mixing.
func (lw *lowerer) convertChecked(rhs tv, to nir.ScalarKind, pos source.Pos) nir.Value {
	if (rhs.kind == nir.Logical32) != (to == nir.Logical32) {
		lw.rep.Errorf("typecheck", pos, "cannot assign %s value to %s target",
			nir.Scalar{Kind: rhs.kind}, nir.Scalar{Kind: to})
		return rhs.v
	}
	return convert(rhs.v, rhs.kind, to)
}

func (lw *lowerer) lowerIf(s *ast.If) nir.Imp {
	cond := lw.lowerExpr(s.Cond)
	if cond.kind != nir.Logical32 {
		lw.rep.Errorf("typecheck", s.Pos, "IF condition must be logical")
	}
	if !cond.scalar() {
		lw.rep.Errorf("shapecheck", s.Pos, "IF condition must be scalar; use WHERE for array masks")
	}
	pre := lw.takePre()
	then := lw.lowerStmts(s.Then)
	var els nir.Imp = nir.Skip{}
	if s.Else != nil {
		els = lw.lowerStmts(s.Else)
	}
	return nir.Seq(nir.Seq(pre...), nir.IfThenElse{Cond: cond.v, Then: then, Else: els})
}

// lowerDo lowers an indexed DO. Constant-bound loops become DO over a
// serial shape with the index substituted by a local_under coordinate —
// the inductive loop model of Fig. 4 — so the optimizer can reason about
// them shapewise; dynamic-bound loops fall back to the classical WHILE
// encoding.
func (lw *lowerer) lowerDo(s *ast.DoLoop) nir.Imp {
	from := lw.evalConst(s.From)
	to := lw.evalConst(s.To)
	step := constVal{Kind: nir.Integer32, I: 1, OK: true}
	if s.Step != nil {
		step = lw.evalConst(s.Step)
	}

	if from.OK && to.OK && step.OK &&
		from.Kind == nir.Integer32 && to.Kind == nir.Integer32 && step.Kind == nir.Integer32 {
		return lw.lowerStaticDo(s, int(from.I), int(to.I), int(step.I))
	}
	return lw.lowerDynamicDo(s)
}

func (lw *lowerer) lowerStaticDo(s *ast.DoLoop, from, to, step int) nir.Imp {
	if step == 0 {
		lw.rep.Errorf("lower", s.Pos, "zero DO step")
		return nir.Skip{}
	}
	trips := 0
	if step > 0 && to >= from {
		trips = (to-from)/step + 1
	} else if step < 0 && to <= from {
		trips = (from-to)/(-step) + 1
	}
	if trips == 0 {
		// Zero-trip loop: only the index assignment is observable.
		if sym, ok := lw.syms.Lookup(s.Var); ok && sym.Shape == nil && sym.Kind == nir.Integer32 && !sym.Param {
			return nir.Move{Moves: []nir.GuardedMove{{
				Mask: nir.True, Src: nir.IntConst(int64(from)), Tgt: nir.SVar{Name: s.Var}, Pos: s.Pos}}, Pos: s.Pos}
		}
		return nir.Skip{}
	}

	tag := fmt.Sprintf("do%d", lw.loopCount)
	lw.loopCount++
	var S shape.Interval
	var idx nir.Value
	if step == 1 {
		S = shape.Interval{Lo: from, Hi: to, Serial: true, Tag: tag}
		idx = nir.LocalUnder{S: S, Dim: 1}
	} else {
		S = shape.Interval{Lo: 1, Hi: trips, Serial: true, Tag: tag}
		// i = from + (k-1)*step
		k := nir.LocalUnder{S: S, Dim: 1}
		idx = nir.Binary{Op: nir.Plus,
			L: nir.IntConst(int64(from)),
			R: nir.Binary{Op: nir.Mul,
				L: nir.Binary{Op: nir.Minus, L: k, R: nir.IntConst(1)},
				R: nir.IntConst(int64(step))}}
	}

	saved, had := lw.idxEnv[s.Var]
	lw.idxEnv[s.Var] = idx
	body := lw.lowerStmts(s.Body)
	if had {
		lw.idxEnv[s.Var] = saved
	} else {
		delete(lw.idxEnv, s.Var)
	}
	loop := nir.Imp(nir.Do{S: S, Body: body})
	// Fortran 90 semantics: after loop completion the DO variable holds
	// the value after the final incrementation. Emit the trailing store
	// when the index is a declared scalar integer (observable storage).
	if sym, ok := lw.syms.Lookup(s.Var); ok && sym.Shape == nil && sym.Kind == nir.Integer32 && !sym.Param {
		final := from + trips*step
		loop = nir.Seq(loop, nir.Move{Moves: []nir.GuardedMove{{
			Mask: nir.True, Src: nir.IntConst(int64(final)), Tgt: nir.SVar{Name: s.Var}, Pos: s.Pos}}, Pos: s.Pos})
	}
	return loop
}

func (lw *lowerer) lowerDynamicDo(s *ast.DoLoop) nir.Imp {
	sym, ok := lw.syms.Lookup(s.Var)
	if !ok || sym.Shape != nil || sym.Kind != nir.Integer32 {
		lw.rep.Errorf("typecheck", s.Pos, "DO index %q must be a declared scalar integer", s.Var)
		return nir.Skip{}
	}
	from := lw.lowerExpr(s.From)
	to := lw.lowerExpr(s.To)
	stepc := 1
	if s.Step != nil {
		stepc, _ = lw.evalConstInt(s.Step, "DO step with dynamic bounds")
		if stepc == 0 {
			stepc = 1
		}
	}
	if !from.scalar() || !to.scalar() {
		lw.rep.Errorf("shapecheck", s.Pos, "DO bounds must be scalar")
	}
	pre := lw.takePre()
	iv := nir.SVar{Name: s.Var}

	initMove := nir.Move{Moves: []nir.GuardedMove{{Mask: nir.True, Src: convert(from.v, from.kind, nir.Integer32), Tgt: iv, Pos: s.Pos}}, Pos: s.Pos}
	condOp := nir.LessEq
	if stepc < 0 {
		condOp = nir.GreaterEq
	}
	cond := nir.Binary{Op: condOp, L: iv, R: convert(to.v, to.kind, nir.Integer32)}
	body := lw.lowerStmts(s.Body)
	inc := nir.Move{Moves: []nir.GuardedMove{{Mask: nir.True,
		Src: nir.Binary{Op: nir.Plus, L: iv, R: nir.IntConst(int64(stepc))}, Tgt: iv, Pos: s.Pos}}, Pos: s.Pos}
	return nir.Seq(nir.Seq(pre...), initMove, nir.While{Cond: cond, Body: nir.Seq(body, inc)})
}

// lowerWhere lowers WHERE/ELSEWHERE into complementary masked moves
// (§4.2, Fig. 10). The mask expression is inlined into the guards unless
// a body assignment writes storage the mask reads, in which case Fortran's
// evaluate-mask-first semantics force materialization into a temporary.
func (lw *lowerer) lowerWhere(s *ast.Where) nir.Imp {
	mask := lw.lowerExpr(s.Mask)
	if mask.kind != nir.Logical32 || mask.scalar() {
		lw.rep.Errorf("typecheck", s.Pos, "WHERE mask must be a logical array")
		return nir.Skip{}
	}
	head := lw.takePre()

	// Materialize the mask if any body assignment writes what it reads.
	maskReads := map[string]bool{}
	nir.WalkValues(mask.v, func(v nir.Value) {
		switch v := v.(type) {
		case nir.SVar:
			maskReads[v.Name] = true
		case nir.AVar:
			maskReads[v.Name] = true
		}
	})
	conflict := false
	for _, group := range [][]*ast.Assign{s.Body, s.ElseBody} {
		for _, a := range group {
			switch lhs := a.LHS.(type) {
			case *ast.Ident:
				conflict = conflict || maskReads[lhs.Name]
			case *ast.Index:
				conflict = conflict || maskReads[lhs.Name]
			}
		}
	}
	if conflict {
		tmp := lw.freshTemp(nir.Logical32, mask.shape, s.Pos)
		tgt := nir.AVar{Name: tmp.Name, Field: nir.Everywhere{}}
		head = append(head, nir.Move{Over: mask.shape, Moves: []nir.GuardedMove{
			{Mask: nir.True, Src: mask.v, Tgt: tgt, Pos: s.Pos}}, Pos: s.Pos})
		mask.v = tgt
	}

	var actions []nir.Imp
	actions = append(actions, head...)
	for _, a := range s.Body {
		lw.pre = nil
		mv := lw.lowerAssign(a, mask.v, mask.shape)
		actions = append(actions, lw.takePre()...)
		actions = append(actions, mv)
	}
	notMask := nir.Unary{Op: nir.NotU, X: mask.v}
	for _, a := range s.ElseBody {
		lw.pre = nil
		mv := lw.lowerAssign(a, notMask, mask.shape)
		actions = append(actions, lw.takePre()...)
		actions = append(actions, mv)
	}
	return nir.Seq(actions...)
}

// lowerForall lowers a FORALL into a single parallel MOVE over the index
// space (Fig. 7). Identity subscripts collapse to everywhere references.
func (lw *lowerer) lowerForall(s *ast.Forall) nir.Imp {
	if s.Assign == nil {
		return nir.Skip{}
	}
	type idxInfo struct {
		name string
		val  nir.Value
	}
	var dims []shape.Shape
	var infos []idxInfo
	for _, ix := range s.Indexes {
		lo, ok1 := lw.evalConstInt(ix.Lo, "FORALL bound")
		hi, ok2 := lw.evalConstInt(ix.Hi, "FORALL bound")
		step := 1
		if ix.Step != nil {
			step, _ = lw.evalConstInt(ix.Step, "FORALL stride")
			if step == 0 {
				step = 1
			}
		}
		if !ok1 || !ok2 {
			return nir.Skip{}
		}
		var dim shape.Interval
		if step == 1 {
			dim = shape.Interval{Lo: lo, Hi: hi}
		} else {
			trips := 0
			if step > 0 && hi >= lo {
				trips = (hi-lo)/step + 1
			} else if step < 0 && hi <= lo {
				trips = (lo-hi)/(-step) + 1
			}
			if trips == 0 {
				return nir.Skip{}
			}
			dim = shape.Interval{Lo: 1, Hi: trips}
		}
		dims = append(dims, dim)
		infos = append(infos, idxInfo{name: ix.Var})
	}
	var S shape.Shape
	if len(dims) == 1 {
		S = dims[0]
	} else {
		S = shape.Prod{Dims: dims}
	}
	// Index values: LocalUnder over the whole product shape, or affine
	// maps of it for strided index sets.
	for k := range infos {
		ix := s.Indexes[k]
		base := nir.LocalUnder{S: S, Dim: k + 1}
		step := 1
		if ix.Step != nil {
			step, _ = lw.evalConstInt(ix.Step, "FORALL stride")
		}
		if step == 1 || step == 0 {
			infos[k].val = base
		} else {
			lo, _ := lw.evalConstInt(ix.Lo, "FORALL bound")
			infos[k].val = nir.Binary{Op: nir.Plus,
				L: nir.IntConst(int64(lo)),
				R: nir.Binary{Op: nir.Mul,
					L: nir.Binary{Op: nir.Minus, L: base, R: nir.IntConst(1)},
					R: nir.IntConst(int64(step))}}
		}
	}

	saved := map[string]nir.Value{}
	for _, info := range infos {
		if old, had := lw.idxEnv[info.name]; had {
			saved[info.name] = old
		}
		lw.idxEnv[info.name] = info.val
	}
	defer func() {
		for _, info := range infos {
			if old, had := saved[info.name]; had {
				lw.idxEnv[info.name] = old
			} else {
				delete(lw.idxEnv, info.name)
			}
		}
	}()

	guard := nir.Value(nir.True)
	if s.Mask != nil {
		m := lw.lowerExpr(s.Mask)
		if m.kind != nir.Logical32 {
			lw.rep.Errorf("typecheck", s.Pos, "FORALL mask must be logical")
		}
		guard = m.v
	}

	// Target: must be an element reference over the FORALL indexes.
	lhs, ok := s.Assign.LHS.(*ast.Index)
	if !ok {
		lw.rep.Errorf("typecheck", s.Assign.Pos, "FORALL assignment target must be subscripted")
		return nir.Skip{}
	}
	sym, ok := lw.syms.Lookup(lhs.Name)
	if !ok || sym.Shape == nil {
		lw.rep.Errorf("typecheck", lhs.Pos, "FORALL target %q is not an array", lhs.Name)
		return nir.Skip{}
	}
	tgt := lw.lowerArrayRef(lhs, sym)
	av, ok := tgt.v.(nir.AVar)
	if !ok || tgt.shape != nil {
		lw.rep.Errorf("typecheck", lhs.Pos, "FORALL target must be an element reference")
		return nir.Skip{}
	}

	rhs := lw.lowerExpr(s.Assign.RHS)
	if !rhs.scalar() {
		lw.rep.Errorf("shapecheck", s.Assign.Pos, "FORALL body must be elementwise")
	}
	src := lw.convertChecked(rhs, sym.Kind, s.Assign.Pos)

	idVals := make([]nir.Value, len(infos))
	for k, info := range infos {
		idVals[k] = info.val
	}
	mv := nir.Move{Over: S, Moves: []nir.GuardedMove{{Mask: guard, Src: src, Tgt: av, Pos: s.Assign.Pos}}, Pos: s.Assign.Pos}
	return lw.collapseIdentity(mv, S, idVals)
}

// collapseIdentity rewrites AVar subscript references whose subscripts are
// exactly the identity index vector over S (and whose array shape is
// congruent with S with matching bounds) into everywhere references.
func (lw *lowerer) collapseIdentity(mv nir.Move, S shape.Shape, idVals []nir.Value) nir.Move {
	identity := func(av nir.AVar) nir.Value {
		sub, ok := av.Field.(nir.Subscript)
		if !ok || len(sub.Subs) != len(idVals) {
			return av
		}
		sym, found := lw.syms.Lookup(av.Name)
		if !found || sym.Shape == nil || !shape.Congruent(sym.Shape, S) {
			return av
		}
		// Bounds must also line up for an everywhere collapse.
		sl, il := shape.Lowers(sym.Shape), shape.Lowers(S)
		for i := range sl {
			if sl[i] != il[i] {
				return av
			}
		}
		for i := range sub.Subs {
			if !nir.EqualValue(sub.Subs[i], idVals[i]) {
				return av
			}
		}
		return nir.AVar{Name: av.Name, Field: nir.Everywhere{}}
	}
	out := make([]nir.GuardedMove, len(mv.Moves))
	for i, g := range mv.Moves {
		g.Src = nir.RewriteValues(g.Src, func(v nir.Value) nir.Value {
			if av, ok := v.(nir.AVar); ok {
				return identity(av)
			}
			return v
		})
		g.Mask = nir.RewriteValues(g.Mask, func(v nir.Value) nir.Value {
			if av, ok := v.(nir.AVar); ok {
				return identity(av)
			}
			return v
		})
		if av, ok := g.Tgt.(nir.AVar); ok {
			g.Tgt = identity(av)
		}
		out[i] = g
	}
	return nir.Move{Over: mv.Over, Moves: out, Pos: mv.Pos}
}

func (lw *lowerer) lowerPrint(s *ast.Print) nir.Imp {
	var args []nir.Value
	for _, item := range s.Items {
		x := lw.lowerExpr(item)
		if !x.scalar() {
			x = lw.materializeField(x, item)
		}
		args = append(args, x.v)
	}
	return nir.Seq(nir.Seq(lw.takePre()...), nir.CallImp{Name: "rt_print", Args: args})
}

// wrap builds the full paper-style program: WITH_DOMAIN bindings for each
// distinct array shape, a WITH_DECL(DECLSET[...]) for all entities, and
// the PROGRAM action (Fig. 8).
func (lw *lowerer) wrap(body nir.Imp, mod *Module) nir.Imp {
	// A program declares a handful of distinct shapes, so a domain is
	// found by comparing against each.
	var domains []Domain
	domainOf := func(s shape.Shape) string {
		for _, d := range domains {
			if sameDomain(d.Shape, s) {
				return d.Name
			}
		}
		return ""
	}
	for _, sym := range lw.syms.Arrays() {
		if domainOf(sym.Shape) == "" {
			domains = append(domains, Domain{Name: domainName(len(domains)), Shape: sym.Shape})
		}
	}
	mod.Domains = domains

	var decls []nir.Decl
	for _, sym := range lw.syms.All() {
		if sym.Param {
			decls = append(decls, nir.Initialized{Name: sym.Name,
				Type: nir.Scalar{Kind: sym.Kind}, Init: sym.Const.toValue()})
			continue
		}
		t := sym.Type
		if sym.Shape != nil {
			t = nir.DField{Shape: shape.Ref{Name: domainOf(sym.Shape)}, Elem: nir.Scalar{Kind: sym.Kind}}
		}
		decls = append(decls, nir.DeclVar{Name: sym.Name, Type: t})
	}

	wrapped := nir.Imp(nir.WithDecl{Decl: nir.DeclSet{List: decls}, Body: body})
	for i := len(domains) - 1; i >= 0; i-- {
		wrapped = nir.WithDomain{Name: domains[i].Name, Shape: domains[i].Shape, Body: wrapped}
	}
	return nir.Program{Body: wrapped}
}
