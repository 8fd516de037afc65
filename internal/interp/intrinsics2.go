package interp

import (
	"fmt"

	"f90y/internal/ast"
)

// requireArray evaluates an argument that must be an array.
func (m *Machine) requireArray(e *ast.Index, arg ast.Expr, what string) (*Array, error) {
	if arg == nil {
		return nil, fmt.Errorf("%s: %q requires %s", e.Pos, e.Name, what)
	}
	r, err := m.eval(arg)
	if err != nil {
		return nil, err
	}
	if !r.isArray() {
		return nil, fmt.Errorf("%s: %s of %q must be an array", e.Pos, what, e.Name)
	}
	return r.Arr, nil
}

// evalCshift implements CSHIFT (circular) and EOSHIFT (end-off).
// Shift semantics follow Fortran 90: positive shift moves elements toward
// lower indexes (element i of the result is element i+shift of the
// argument, circularly).
func (m *Machine) evalCshift(e *ast.Index, args map[string]ast.Expr, circular bool) (result, error) {
	a, err := m.requireArray(e, args["array"], "array argument")
	if err != nil {
		return result{}, err
	}
	if args["shift"] == nil {
		return result{}, fmt.Errorf("%s: %q requires a shift", e.Pos, e.Name)
	}
	sv, err := m.evalScalar(args["shift"])
	if err != nil {
		return result{}, err
	}
	shift := int(sv.AsInt())
	dim := 1
	if args["dim"] != nil {
		dv, err := m.evalScalar(args["dim"])
		if err != nil {
			return result{}, err
		}
		dim = int(dv.AsInt())
	}
	if dim < 1 || dim > a.Rank() {
		return result{}, fmt.Errorf("%s: dim %d out of range", e.Pos, dim)
	}
	boundary := Val{Kind: a.Kind}
	if !circular && args["boundary"] != nil {
		bv, err := m.evalScalar(args["boundary"])
		if err != nil {
			return result{}, err
		}
		boundary = convertVal(bv, a.Kind)
	}

	out := NewArray(a.Kind, a.Ext, a.Lo)
	d := dim - 1
	n := a.Ext[d]
	// Walk all elements; compute the source index along dim.
	idx := make([]int, a.Rank())
	for i := range idx {
		idx[i] = a.Lo[i]
	}
	total := a.Size()
	src := make([]int, a.Rank())
	for count := 0; count < total; count++ {
		copy(src, idx)
		j := idx[d] - a.Lo[d] + shift
		if circular {
			j = ((j % n) + n) % n
			src[d] = a.Lo[d] + j
			v, _ := a.Get(src)
			_ = out.Set(idx, v)
		} else if j >= 0 && j < n {
			src[d] = a.Lo[d] + j
			v, _ := a.Get(src)
			_ = out.Set(idx, v)
		} else {
			_ = out.Set(idx, boundary)
		}
		// Column-major increment.
		for k := 0; k < a.Rank(); k++ {
			idx[k]++
			if idx[k] < a.Lo[k]+a.Ext[k] {
				break
			}
			idx[k] = a.Lo[k]
		}
	}
	return arrayResult(out), nil
}

func (m *Machine) evalReduce(e *ast.Index, args map[string]ast.Expr) (result, error) {
	a, err := m.requireArray(e, args["array"], "array argument")
	if err != nil {
		return result{}, err
	}
	if a.Size() == 0 {
		return result{}, fmt.Errorf("%s: reduction of empty array", e.Pos)
	}
	switch e.Name {
	case "sum":
		if a.Kind == KInt {
			var s int64
			for _, v := range a.I {
				s += v
			}
			return scalarResult(IntVal(s)), nil
		}
		var s float64
		for _, v := range a.F {
			s += v
		}
		return scalarResult(RealVal(s)), nil
	case "product":
		if a.Kind == KInt {
			p := int64(1)
			for _, v := range a.I {
				p *= v
			}
			return scalarResult(IntVal(p)), nil
		}
		p := 1.0
		for _, v := range a.F {
			p *= v
		}
		return scalarResult(RealVal(p)), nil
	case "maxval", "minval":
		isMax := e.Name == "maxval"
		if a.Kind == KInt {
			best := a.I[0]
			for _, v := range a.I[1:] {
				if (isMax && v > best) || (!isMax && v < best) {
					best = v
				}
			}
			return scalarResult(IntVal(best)), nil
		}
		best := a.F[0]
		for _, v := range a.F[1:] {
			if (isMax && v > best) || (!isMax && v < best) {
				best = v
			}
		}
		return scalarResult(RealVal(best)), nil
	}
	return result{}, fmt.Errorf("%s: unknown reduction %q", e.Pos, e.Name)
}

// evalLogicalReduce implements ANY, ALL, and COUNT over logical arrays.
func (m *Machine) evalLogicalReduce(e *ast.Index, args map[string]ast.Expr) (result, error) {
	a, err := m.requireArray(e, args["mask"], "mask argument")
	if err != nil {
		return result{}, err
	}
	if a.Kind != KLogical {
		return result{}, fmt.Errorf("%s: %q requires a logical array", e.Pos, e.Name)
	}
	switch e.Name {
	case "any":
		for _, b := range a.B {
			if b {
				return scalarResult(BoolVal(true)), nil
			}
		}
		return scalarResult(BoolVal(false)), nil
	case "all":
		for _, b := range a.B {
			if !b {
				return scalarResult(BoolVal(false)), nil
			}
		}
		return scalarResult(BoolVal(true)), nil
	default: // count
		n := int64(0)
		for _, b := range a.B {
			if b {
				n++
			}
		}
		return scalarResult(IntVal(n)), nil
	}
}

func (m *Machine) evalTranspose(e *ast.Index, args map[string]ast.Expr) (result, error) {
	a, err := m.requireArray(e, args["matrix"], "matrix argument")
	if err != nil {
		return result{}, err
	}
	if a.Rank() != 2 {
		return result{}, fmt.Errorf("%s: transpose requires rank 2", e.Pos)
	}
	out := NewArray(a.Kind, []int{a.Ext[1], a.Ext[0]}, []int{1, 1})
	for j := 0; j < a.Ext[1]; j++ {
		for i := 0; i < a.Ext[0]; i++ {
			out.set(j+i*a.Ext[1], a.at(i+j*a.Ext[0]))
		}
	}
	return arrayResult(out), nil
}

// evalGather implements GATHER(array, index): result(i) =
// array(index(i)) for rank-1 array and integer index. Index values are
// bounds-checked against the array's declared bounds.
func (m *Machine) evalGather(e *ast.Index, args map[string]ast.Expr) (result, error) {
	a, err := m.requireArray(e, args["array"], "array argument")
	if err != nil {
		return result{}, err
	}
	idx, err := m.requireArray(e, args["index"], "index argument")
	if err != nil {
		return result{}, err
	}
	if a.Rank() != 1 || idx.Rank() != 1 {
		return result{}, fmt.Errorf("%s: gather requires rank-1 array and index", e.Pos)
	}
	if idx.Kind != KInt {
		return result{}, fmt.Errorf("%s: gather index must be integer", e.Pos)
	}
	out := NewArray(a.Kind, idx.Ext, []int{1})
	for i := 0; i < idx.Size(); i++ {
		j := int(idx.at(i).AsInt()) - a.Lo[0]
		if j < 0 || j >= a.Ext[0] {
			return result{}, fmt.Errorf("%s: gather index %d out of bounds [%d,%d]",
				e.Pos, j+a.Lo[0], a.Lo[0], a.Lo[0]+a.Ext[0]-1)
		}
		out.set(i, a.at(j))
	}
	return arrayResult(out), nil
}

func (m *Machine) evalSpread(e *ast.Index, args map[string]ast.Expr) (result, error) {
	if args["source"] == nil || args["dim"] == nil || args["ncopies"] == nil {
		return result{}, fmt.Errorf("%s: spread requires source, dim, ncopies", e.Pos)
	}
	src, err := m.eval(args["source"])
	if err != nil {
		return result{}, err
	}
	dv, err := m.evalScalar(args["dim"])
	if err != nil {
		return result{}, err
	}
	nv, err := m.evalScalar(args["ncopies"])
	if err != nil {
		return result{}, err
	}
	dim, n := int(dv.AsInt()), int(nv.AsInt())
	if n < 1 {
		return result{}, fmt.Errorf("%s: spread ncopies must be positive", e.Pos)
	}

	var srcExt []int
	kind := src.Val.Kind
	if src.isArray() {
		srcExt = src.Arr.Ext
		kind = src.Arr.Kind
	}
	if dim < 1 || dim > len(srcExt)+1 {
		return result{}, fmt.Errorf("%s: spread dim %d out of range", e.Pos, dim)
	}
	ext := make([]int, 0, len(srcExt)+1)
	ext = append(ext, srcExt[:dim-1]...)
	ext = append(ext, n)
	ext = append(ext, srcExt[dim-1:]...)
	lo := make([]int, len(ext))
	for i := range lo {
		lo[i] = 1
	}
	out := NewArray(kind, ext, lo)

	// Element (i1..id-1, c, id..ik) of the result is source element
	// (i1..ik); walk the result and map indexes back.
	idx := make([]int, len(ext))
	for i := range idx {
		idx[i] = 1
	}
	sidx := make([]int, len(srcExt))
	for count := 0; count < out.Size(); count++ {
		k := 0
		for d := 0; d < len(ext); d++ {
			if d == dim-1 {
				continue
			}
			sidx[k] = idx[d]
			k++
		}
		v := src.Val
		if src.isArray() {
			sv := sidx
			for i := range sv {
				sv[i] = sv[i] - 1 + src.Arr.Lo[i]
			}
			v, _ = src.Arr.Get(sv)
		}
		_ = out.Set(idx, v)
		for k := 0; k < len(ext); k++ {
			idx[k]++
			if idx[k] <= ext[k] {
				break
			}
			idx[k] = 1
		}
	}
	return arrayResult(out), nil
}

func (m *Machine) evalDot(e *ast.Index, args map[string]ast.Expr) (result, error) {
	a, err := m.requireArray(e, args["vector_a"], "vector_a")
	if err != nil {
		return result{}, err
	}
	b, err := m.requireArray(e, args["vector_b"], "vector_b")
	if err != nil {
		return result{}, err
	}
	if a.Rank() != 1 || b.Rank() != 1 || a.Size() != b.Size() {
		return result{}, fmt.Errorf("%s: dot_product requires conforming rank-1 arrays", e.Pos)
	}
	if a.Kind == KInt && b.Kind == KInt {
		var s int64
		for i := range a.I {
			s += a.I[i] * b.I[i]
		}
		return scalarResult(IntVal(s)), nil
	}
	var s float64
	for i := 0; i < a.Size(); i++ {
		s += float64(a.at(i).AsFloat() * b.at(i).AsFloat())
	}
	return scalarResult(RealVal(s)), nil
}

func (m *Machine) evalSize(e *ast.Index, args map[string]ast.Expr) (result, error) {
	ident, ok := args["array"].(*ast.Ident)
	if !ok {
		return result{}, fmt.Errorf("%s: size argument must be an array name", e.Pos)
	}
	a := m.arrays[ident.Name]
	if a == nil {
		return result{}, fmt.Errorf("%s: size of non-array %q", e.Pos, ident.Name)
	}
	if args["dim"] == nil {
		return scalarResult(IntVal(int64(a.Size()))), nil
	}
	dv, err := m.evalScalar(args["dim"])
	if err != nil {
		return result{}, err
	}
	dim := int(dv.AsInt())
	if dim < 1 || dim > a.Rank() {
		return result{}, fmt.Errorf("%s: size dim %d out of range", e.Pos, dim)
	}
	return scalarResult(IntVal(int64(a.Ext[dim-1]))), nil
}
