// Package lower implements the semantic lowering stage of the
// Fortran-90-Y compiler (§4.1): it consumes ASTs and, by way of five
// semantic equations — one per semantic domain (declarations, types,
// values, imperatives, shapes) — filters out the static semantics of
// Fortran 90 and expresses the residual as a valid NIR program.
//
// The stage typechecks and shapechecks as it lowers: in all direct
// computations between arrays, the shapes of interacting arrays must
// agree (static shapechecking, the shape-domain analogue of static
// typechecking).
package lower

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"strconv"

	"f90y/internal/ast"
	"f90y/internal/nir"
	"f90y/internal/shape"
	"f90y/internal/source"
)

// Symbol is one declared entity with its lowered NIR type.
type Symbol struct {
	Name   string
	Type   nir.Type // Scalar or DField with a concrete shape
	Kind   nir.ScalarKind
	Shape  shape.Shape // nil for scalars
	Lowers []int       // declared lower bound per dimension
	Param  bool
	Const  constVal // value for PARAMETERs
	Temp   bool     // compiler-generated temporary
	// ShiftView marks a temporary that only ever holds a whole-array
	// CSHIFT of another array and is only ever read by PEAC routines
	// before that array changes: the runtime binds it as a rotated
	// window of its source and gives it no memory. internal/partition
	// decides it on the finished host program (shiftview.go).
	ShiftView bool
	// Dist is the array's data distribution from !HPF$ directives (or a
	// compiler override); the zero value is the default blockwise layout.
	Dist shape.Distribution
}

// SymTab maps identifiers to symbols.
type SymTab struct {
	byName map[string]*Symbol
	order  []string
}

// NewSymTab returns an empty symbol table.
func NewSymTab() *SymTab {
	return &SymTab{byName: map[string]*Symbol{}}
}

// Define adds a symbol; redefinition is the caller's error to report.
func (st *SymTab) Define(s *Symbol) bool {
	if _, dup := st.byName[s.Name]; dup {
		return false
	}
	st.byName[s.Name] = s
	st.order = append(st.order, s.Name)
	return true
}

// Lookup finds a symbol by name.
func (st *SymTab) Lookup(name string) (*Symbol, bool) {
	s, ok := st.byName[name]
	return s, ok
}

// All returns symbols in declaration order.
func (st *SymTab) All() []*Symbol {
	out := make([]*Symbol, len(st.order))
	for i, n := range st.order {
		out[i] = st.byName[n]
	}
	return out
}

// Arrays returns the field-typed symbols in declaration order.
func (st *SymTab) Arrays() []*Symbol {
	var out []*Symbol
	for _, s := range st.All() {
		if s.Shape != nil {
			out = append(out, s)
		}
	}
	return out
}

// Symbols carry nir.Type and shape.Shape interface values; gob needs
// the concrete implementations registered before it can move them.
func init() {
	gob.Register(nir.Scalar{})
	gob.Register(nir.DField{})
	gob.Register(shape.Point{})
	gob.Register(shape.Interval{})
	gob.Register(shape.Prod{})
	gob.Register(shape.Ref{})
}

// GobEncode serializes the table as its symbols in declaration order.
// SymTab's fields are unexported (the map is an implementation detail),
// so without this the gob encoding used by the driver's persistent
// artifact cache would silently flatten the table to nothing and every
// restored program would run against an empty store.
func (st *SymTab) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st.All()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode rebuilds the table from a GobEncode payload, preserving
// declaration order.
func (st *SymTab) GobDecode(data []byte) error {
	var syms []*Symbol
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&syms); err != nil {
		return err
	}
	st.byName = map[string]*Symbol{}
	st.order = nil
	for _, s := range syms {
		if !st.Define(s) {
			return fmt.Errorf("lower: decode symtab: duplicate symbol %q", s.Name)
		}
	}
	return nil
}

// Module is the result of lowering one program unit: the NIR program plus
// the symbol and domain context later phases need.
type Module struct {
	Name    string
	Prog    nir.Imp // PROGRAM(WITH_DOMAIN*(WITH_DECL(body)))
	Body    nir.Imp // the executable action inside the wrappers
	Syms    *SymTab
	Domains []Domain // named concrete shapes, in binding order
}

// Domain is a WITH_DOMAIN binding emitted by lowering: one name per
// distinct array shape in the program, in the style of the paper's
// 'alpha', 'beta', ... examples.
type Domain struct {
	Name  string
	Shape shape.Shape
}

var greek = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa", "lambda", "mu"}

// domainName returns the idiomatic name for the i-th distinct shape.
func domainName(i int) string {
	if i < len(greek) {
		return greek[i]
	}
	return fmt.Sprintf("dom%d", i)
}

// ---- constant evaluation ----

// constVal is a compile-time scalar constant.
type constVal struct {
	Kind nir.ScalarKind
	I    int64
	F    float64
	B    bool
	OK   bool
}

func (c constVal) asFloat() float64 {
	if c.Kind == nir.Integer32 {
		return float64(c.I)
	}
	return c.F
}

func (c constVal) toValue() nir.Value {
	switch c.Kind {
	case nir.Integer32:
		return nir.IntConst(c.I)
	case nir.Logical32:
		return nir.BoolConst(c.B)
	case nir.Float32:
		return nir.Float32Const(c.F)
	default:
		return nir.FloatConst(c.F)
	}
}

// evalConst evaluates a restricted constant expression (literals,
// PARAMETER names, arithmetic). The zero constVal (OK=false) means
// "not constant".
func (lw *lowerer) evalConst(e ast.Expr) constVal {
	switch e := e.(type) {
	case *ast.IntLit:
		return constVal{Kind: nir.Integer32, I: e.Value, OK: true}
	case *ast.RealLit:
		k := nir.Float32
		if e.Double {
			k = nir.Float64
		}
		return constVal{Kind: k, F: e.Value, OK: true}
	case *ast.LogicalLit:
		return constVal{Kind: nir.Logical32, B: e.Value, OK: true}
	case *ast.Ident:
		if s, ok := lw.syms.Lookup(e.Name); ok && s.Param {
			return s.Const
		}
	case *ast.Unary:
		x := lw.evalConst(e.X)
		if !x.OK {
			return constVal{}
		}
		switch e.Op {
		case ast.Neg:
			if x.Kind == nir.Integer32 {
				return constVal{Kind: nir.Integer32, I: -x.I, OK: true}
			}
			return constVal{Kind: x.Kind, F: -x.F, OK: true}
		case ast.Not:
			if x.Kind == nir.Logical32 {
				return constVal{Kind: nir.Logical32, B: !x.B, OK: true}
			}
		}
	case *ast.Binary:
		l, r := lw.evalConst(e.L), lw.evalConst(e.R)
		if !l.OK || !r.OK {
			return constVal{}
		}
		if l.Kind == nir.Integer32 && r.Kind == nir.Integer32 {
			switch e.Op {
			case ast.Add:
				return constVal{Kind: nir.Integer32, I: l.I + r.I, OK: true}
			case ast.Sub:
				return constVal{Kind: nir.Integer32, I: l.I - r.I, OK: true}
			case ast.Mul:
				return constVal{Kind: nir.Integer32, I: l.I * r.I, OK: true}
			case ast.Div:
				if r.I == 0 {
					return constVal{}
				}
				return constVal{Kind: nir.Integer32, I: l.I / r.I, OK: true}
			case ast.Pow:
				if r.I < 0 {
					return constVal{}
				}
				p := int64(1)
				for k := int64(0); k < r.I; k++ {
					p *= l.I
				}
				return constVal{Kind: nir.Integer32, I: p, OK: true}
			}
			return constVal{}
		}
		// Mixed or floating arithmetic.
		kind := nir.Float64
		if l.Kind != nir.Float64 && r.Kind != nir.Float64 {
			kind = nir.Float32
		}
		lf, rf := l.asFloat(), r.asFloat()
		switch e.Op {
		case ast.Add:
			return constVal{Kind: kind, F: lf + rf, OK: true}
		case ast.Sub:
			return constVal{Kind: kind, F: lf - rf, OK: true}
		case ast.Mul:
			return constVal{Kind: kind, F: lf * rf, OK: true}
		case ast.Div:
			return constVal{Kind: kind, F: lf / rf, OK: true}
		case ast.Pow:
			return constVal{Kind: kind, F: math.Pow(lf, rf), OK: true}
		}
	}
	return constVal{}
}

// evalConstInt evaluates an expression that must be an integer constant
// (array bounds, section triplets); reports an error otherwise.
func (lw *lowerer) evalConstInt(e ast.Expr, what string) (int, bool) {
	c := lw.evalConst(e)
	if !c.OK || c.Kind != nir.Integer32 {
		lw.rep.Errorf("lower", e.Position(), "%s must be an integer constant expression", what)
		return 0, false
	}
	return int(c.I), true
}

// freshTemp allocates a compiler temporary with the given type, matching
// the paper's tmp0/tmp1 naming (Fig. 12).
func (lw *lowerer) freshTemp(kind nir.ScalarKind, sh shape.Shape, pos source.Pos) *Symbol {
	name := "tmp" + strconv.Itoa(lw.tempCount)
	lw.tempCount++
	sym := &Symbol{Name: name, Kind: kind, Shape: sh, Temp: true}
	if sh == nil {
		sym.Type = nir.Scalar{Kind: kind}
	} else {
		sym.Type = nir.DField{Shape: sh, Elem: nir.Scalar{Kind: kind}}
		sym.Lowers = shape.Lowers(sh)
	}
	if !lw.syms.Define(sym) {
		lw.rep.Errorf("lower", pos, "internal: temporary %s collides", name)
	}
	return sym
}

// sameDomain reports whether two shapes print alike, the identity domain
// names are assigned by: structural equality with loop tags, which are
// not printed, left out.
func sameDomain(a, b shape.Shape) bool {
	switch a := a.(type) {
	case shape.Interval:
		b, ok := b.(shape.Interval)
		return ok && a.Lo == b.Lo && a.Hi == b.Hi && a.Serial == b.Serial
	case shape.Prod:
		b, ok := b.(shape.Prod)
		if !ok || len(a.Dims) != len(b.Dims) {
			return false
		}
		for i := range a.Dims {
			if !sameDomain(a.Dims[i], b.Dims[i]) {
				return false
			}
		}
		return true
	}
	return shape.Equal(a, b) // points and refs carry no tag
}
