package rt

import (
	"fmt"
	"math"

	"f90y/internal/nir"
	"f90y/internal/shape"
)

// EvalCtx supplies the environment for host-side evaluation of NIR
// values: the store, the current iteration coordinates (for LocalUnder
// values inside serial loops and general moves), and an element resolver
// for array references.
type EvalCtx struct {
	Store *Store
	// Local returns the current coordinate along dim of the iteration
	// shape s, when iterating.
	Local func(s shape.Shape, dim int) (int, bool)
	// Elem resolves an array reference to an element value. When nil,
	// only Subscript references are evaluated (via Local-driven
	// subscript expressions).
	Elem func(av nir.AVar) (float64, nir.ScalarKind, error)
	// Ops counts evaluated operators for the host cycle model.
	Ops int
}

// Eval computes a NIR value on the host, returning the value and its kind.
func Eval(v nir.Value, ctx *EvalCtx) (float64, nir.ScalarKind, error) {
	switch v := v.(type) {
	case nir.Const:
		switch v.Type.Kind {
		case nir.Integer32:
			return float64(v.I), nir.Integer32, nil
		case nir.Logical32:
			if v.B {
				return 1, nir.Logical32, nil
			}
			return 0, nir.Logical32, nil
		default:
			return v.F, v.Type.Kind, nil
		}
	case nir.SVar:
		val, ok := ctx.Store.Scalars[v.Name]
		if !ok {
			return 0, 0, fmt.Errorf("rt: undefined scalar %q", v.Name)
		}
		return val, ctx.Store.Kinds[v.Name], nil
	case nir.LocalUnder:
		if ctx.Local != nil {
			if c, ok := ctx.Local(v.S, v.Dim); ok {
				return float64(c), nir.Integer32, nil
			}
		}
		return 0, 0, fmt.Errorf("rt: local_under outside iteration")
	case nir.AVar:
		if ctx.Elem != nil {
			val, kind, err := ctx.Elem(v)
			return val, kind, err
		}
		return evalSubscripted(v, ctx)
	case nir.Unary:
		ctx.Ops++
		x, k, err := Eval(v.X, ctx)
		if err != nil {
			return 0, 0, err
		}
		return evalUnary(v.Op, x, k)
	case nir.Binary:
		ctx.Ops++
		l, lk, err := Eval(v.L, ctx)
		if err != nil {
			return 0, 0, err
		}
		r, rk, err := Eval(v.R, ctx)
		if err != nil {
			return 0, 0, err
		}
		return evalBinary(v.Op, l, lk, r, rk)
	case nir.FcnCall:
		return 0, 0, fmt.Errorf("rt: runtime call %q in value position", v.Name)
	case nir.StrConst:
		return 0, 0, fmt.Errorf("rt: string constant in value position")
	}
	return 0, 0, fmt.Errorf("rt: unsupported value %T", v)
}

// evalSubscripted reads one array element through a Subscript field.
func evalSubscripted(av nir.AVar, ctx *EvalCtx) (float64, nir.ScalarKind, error) {
	arr, ok := ctx.Store.Arrays[av.Name]
	if !ok {
		return 0, 0, fmt.Errorf("rt: undefined array %q: %w", av.Name, ErrUndefined)
	}
	sub, ok := av.Field.(nir.Subscript)
	if !ok {
		return 0, 0, fmt.Errorf("rt: whole-array reference to %q in scalar context", av.Name)
	}
	idx, err := evalIndexes(sub.Subs, ctx)
	if err != nil {
		return 0, 0, err
	}
	off, err := arr.Offset(idx)
	if err != nil {
		return 0, 0, fmt.Errorf("rt: %q: %w", av.Name, err)
	}
	if err := ctx.Store.Materialize(arr, MaterializedHostRead); err != nil {
		return 0, 0, fmt.Errorf("rt: %q: %w", av.Name, err)
	}
	return arr.Data[off], arr.Kind, nil
}

func evalIndexes(subs []nir.Value, ctx *EvalCtx) ([]int, error) {
	idx := make([]int, len(subs))
	for d, s := range subs {
		v, _, err := Eval(s, ctx)
		if err != nil {
			return nil, err
		}
		idx[d] = int(math.Trunc(v))
	}
	return idx, nil
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func evalUnary(op nir.UnOp, x float64, k nir.ScalarKind) (float64, nir.ScalarKind, error) {
	switch op {
	case nir.Neg:
		return -x, k, nil
	case nir.NotU:
		return boolToF(x == 0), nir.Logical32, nil
	case nir.Abs:
		return math.Abs(x), k, nil
	case nir.Sqrt:
		return math.Sqrt(x), floatKind(k), nil
	case nir.Sin:
		return math.Sin(x), floatKind(k), nil
	case nir.Cos:
		return math.Cos(x), floatKind(k), nil
	case nir.Tan:
		return math.Tan(x), floatKind(k), nil
	case nir.Exp:
		return math.Exp(x), floatKind(k), nil
	case nir.Log:
		return math.Log(x), floatKind(k), nil
	case nir.ToFloat64:
		return x, nir.Float64, nil
	case nir.ToFloat32:
		return x, nir.Float32, nil
	case nir.ToInteger32:
		return math.Trunc(x), nir.Integer32, nil
	}
	return 0, 0, fmt.Errorf("rt: unknown unary %v", op)
}

func floatKind(k nir.ScalarKind) nir.ScalarKind {
	if k == nir.Integer32 {
		return nir.Float64
	}
	return k
}

func evalBinary(op nir.BinOp, l float64, lk nir.ScalarKind, r float64, rk nir.ScalarKind) (float64, nir.ScalarKind, error) {
	bothInt := lk == nir.Integer32 && rk == nir.Integer32
	kind := nir.Float64
	if bothInt {
		kind = nir.Integer32
	} else if lk == nir.Float32 && rk != nir.Float64 || rk == nir.Float32 && lk != nir.Float64 {
		kind = nir.Float32
	}
	switch op {
	case nir.Plus:
		return l + r, kind, nil
	case nir.Minus:
		return l - r, kind, nil
	case nir.Mul:
		return l * r, kind, nil
	case nir.Div:
		if bothInt {
			if r == 0 {
				return 0, 0, fmt.Errorf("rt: integer division by zero")
			}
			return math.Trunc(l / r), nir.Integer32, nil
		}
		return l / r, kind, nil
	case nir.Mod:
		if bothInt {
			if r == 0 {
				return 0, 0, fmt.Errorf("rt: mod by zero")
			}
			return l - float64(math.Trunc(l/r)*r), nir.Integer32, nil
		}
		return math.Mod(l, r), kind, nil
	case nir.Min:
		return math.Min(l, r), kind, nil
	case nir.Max:
		return math.Max(l, r), kind, nil
	case nir.Pow:
		if rk == nir.Integer32 {
			// Repeated multiplication, matching the PE strength reduction
			// and the reference interpreter.
			p := 1.0
			n := int64(r)
			neg := n < 0
			if neg {
				n = -n
			}
			for i := int64(0); i < n; i++ {
				p *= l
			}
			if neg {
				if bothInt {
					switch {
					case l == 1:
						return 1, nir.Integer32, nil
					case l == -1 && n%2 == 0:
						return 1, nir.Integer32, nil
					case l == -1:
						return -1, nir.Integer32, nil
					case l == 0:
						return 0, 0, fmt.Errorf("rt: zero to negative power")
					default:
						return 0, nir.Integer32, nil
					}
				}
				return 1 / p, kind, nil
			}
			return p, kind, nil
		}
		return math.Pow(l, r), kind, nil
	case nir.Equals:
		return boolToF(l == r), nir.Logical32, nil
	case nir.NotEquals:
		return boolToF(l != r), nir.Logical32, nil
	case nir.Less:
		return boolToF(l < r), nir.Logical32, nil
	case nir.LessEq:
		return boolToF(l <= r), nir.Logical32, nil
	case nir.Greater:
		return boolToF(l > r), nir.Logical32, nil
	case nir.GreaterEq:
		return boolToF(l >= r), nir.Logical32, nil
	case nir.AndOp:
		return boolToF(l != 0 && r != 0), nir.Logical32, nil
	case nir.OrOp:
		return boolToF(l != 0 || r != 0), nir.Logical32, nil
	case nir.EqvOp:
		return boolToF((l != 0) == (r != 0)), nir.Logical32, nil
	case nir.NeqvOp:
		return boolToF((l != 0) != (r != 0)), nir.Logical32, nil
	}
	return 0, 0, fmt.Errorf("rt: unknown binary %v", op)
}
