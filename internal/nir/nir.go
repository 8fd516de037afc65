// Package nir defines the Native Intermediate Language of the
// Fortran-90-Y compiler (§3 of the paper): an abstract semantic algebra
// whose productions are programs for an abstract machine. NIR has four
// core domains — Types, Declarations, Values, Imperatives (Fig. 5) —
// augmented by a shape domain and its bridge operators (Fig. 6) that model
// serial and parallel iteration over fields of data.
//
// Every compiler phase after semantic lowering consumes and produces NIR:
// the optimizer transforms it source-to-source, and the target-specific
// compilers (CM2/NIR, FE/NIR, PE/NIR, CM5/NIR) reduce it to native code.
package nir

import (
	"fmt"

	"f90y/internal/shape"
	"f90y/internal/source"
)

// ---- Type domain (T) ----

// ScalarKind enumerates the machine-level elemental types.
type ScalarKind int

// Elemental NIR types (Fig. 5).
const (
	Integer32 ScalarKind = iota
	Logical32
	Float32
	Float64
)

func (k ScalarKind) String() string {
	switch k {
	case Integer32:
		return "integer_32"
	case Logical32:
		return "logical_32"
	case Float32:
		return "float_32"
	case Float64:
		return "float_64"
	}
	return "bad_type"
}

// Type is a member of the NIR type domain.
type Type interface {
	isType()
	String() string
}

// Scalar is an elemental type.
type Scalar struct {
	Kind ScalarKind
}

// DField is the bridge operator dfield(S,T): a field of elements of type
// Elem laid out over Shape (Fig. 6).
type DField struct {
	Shape shape.Shape
	Elem  Type
}

func (Scalar) isType() {}
func (DField) isType() {}

func (s Scalar) String() string { return s.Kind.String() }
func (d DField) String() string {
	return fmt.Sprintf("dfield{shape=%s, element=%s}", d.Shape, d.Elem)
}

// ---- Declaration domain (D) ----

// Decl is a member of the NIR declaration domain.
type Decl interface {
	isDecl()
}

// DeclVar binds an identifier to a type: DECL(id, T).
type DeclVar struct {
	Name string
	Type Type
}

// DeclSet groups declarations: DECLSET[...].
type DeclSet struct {
	List []Decl
}

// Initialized is DECL plus an initial value: INITIALIZED(id, T, V).
type Initialized struct {
	Name string
	Type Type
	Init Value
}

func (DeclVar) isDecl()     {}
func (DeclSet) isDecl()     {}
func (Initialized) isDecl() {}

// ---- Value domain (V) ----

// BinOp is a binary value operator.
type BinOp int

// Binary operators of the value domain. Mod/Min/Max extend the paper's
// listing with operators its own figures use (Fig. 10 uses Mod).
const (
	Plus BinOp = iota
	Minus
	Mul
	Div
	Pow
	Mod
	Min
	Max
	Equals
	NotEquals
	Less
	LessEq
	Greater
	GreaterEq
	AndOp
	OrOp
	EqvOp
	NeqvOp
)

var binOpNames = [...]string{
	Plus: "Plus", Minus: "Sub", Mul: "Mul", Div: "Div", Pow: "Pow",
	Mod: "Mod", Min: "Min", Max: "Max",
	Equals: "Equals", NotEquals: "NotEquals",
	Less: "Less", LessEq: "LessEq", Greater: "Greater", GreaterEq: "GreaterEq",
	AndOp: "And", OrOp: "Or", EqvOp: "Eqv", NeqvOp: "Neqv",
}

func (op BinOp) String() string { return binOpNames[op] }

// Comparison reports whether op yields a logical from non-logical operands.
func (op BinOp) Comparison() bool {
	switch op {
	case Equals, NotEquals, Less, LessEq, Greater, GreaterEq:
		return true
	}
	return false
}

// Logical reports whether op combines logical operands.
func (op BinOp) Logical() bool {
	switch op {
	case AndOp, OrOp, EqvOp, NeqvOp:
		return true
	}
	return false
}

// UnOp is a unary value operator. Elemental intrinsics are unary
// operators, following the paper's UNARY(Sin, ...) convention.
type UnOp int

// Unary operators.
const (
	Neg UnOp = iota
	NotU
	Sin
	Cos
	Tan
	Sqrt
	Exp
	Log
	Abs
	ToFloat64 // type conversions
	ToFloat32
	ToInteger32 // truncation
)

var unOpNames = [...]string{
	Neg: "Neg", NotU: "Not", Sin: "Sin", Cos: "Cos", Tan: "Tan",
	Sqrt: "Sqrt", Exp: "Exp", Log: "Log", Abs: "Abs",
	ToFloat64: "ToF64", ToFloat32: "ToF32", ToInteger32: "ToI32",
}

func (op UnOp) String() string { return unOpNames[op] }

// Value is a member of the NIR value domain.
type Value interface {
	isValue()
}

// Binary is BINARY(op, l, r).
type Binary struct {
	Op   BinOp
	L, R Value
}

// Unary is UNARY(op, x).
type Unary struct {
	Op UnOp
	X  Value
}

// SVar references scalar storage bound to an identifier.
type SVar struct {
	Name string
}

// Const is SCALAR(T, rep): a typed scalar constant. Exactly one of I, F, B
// is meaningful, per Type.
type Const struct {
	Type Scalar
	I    int64
	F    float64
	B    bool
}

// FcnCall is FCNCALL(id, args): an opaque function call. Communication
// intrinsics (cm_cshift, cm_reduce_sum, ...) appear as FcnCalls until the
// back end replaces them with runtime library invocations (§5.2).
type FcnCall struct {
	Name string
	Args []Value
}

// AVar is AVAR(i, F): a reference to field storage bound to identifier i
// through field action F (Fig. 6).
type AVar struct {
	Name  string
	Field Field
}

// StrConst is a character constant. It appears only as an argument of
// imperative runtime calls (PRINT items); the value domain proper has no
// character type, matching the paper's machine-level type set.
type StrConst struct {
	S string
}

// LocalUnder is local_under(S, d): the coordinate matrix of shape S along
// dimension d (1-based). The paper's figures use it freely in value
// position (Figs. 7, 9, 10), so it is a Value here; the field-restrictor
// spelling in Fig. 6 corresponds to Subscript fields built from LocalUnder
// values.
type LocalUnder struct {
	S   shape.Shape
	Dim int
}

func (Binary) isValue()     {}
func (Unary) isValue()      {}
func (SVar) isValue()       {}
func (Const) isValue()      {}
func (FcnCall) isValue()    {}
func (AVar) isValue()       {}
func (StrConst) isValue()   {}
func (LocalUnder) isValue() {}

// IntConst builds an integer_32 constant.
func IntConst(v int64) Const { return Const{Type: Scalar{Kind: Integer32}, I: v} }

// FloatConst builds a float_64 constant.
func FloatConst(v float64) Const { return Const{Type: Scalar{Kind: Float64}, F: v} }

// Float32Const builds a float_32 constant.
func Float32Const(v float64) Const { return Const{Type: Scalar{Kind: Float32}, F: v} }

// BoolConst builds a logical_32 constant.
func BoolConst(v bool) Const { return Const{Type: Scalar{Kind: Logical32}, B: v} }

// True is the constant mask used for unconditional moves.
var True = BoolConst(true)

// ---- Field restrictor domain (F) ----

// Field is a field action specializing an AVar's declared shape (Fig. 6).
type Field interface {
	isField()
}

// Everywhere selects the whole field; the shape is supplied by context,
// decoupling data-movement parallelism from declared shapes (§3.2).
type Everywhere struct{}

// Subscript selects a single point per dimension: shapewise subscripting.
// Each entry is a scalar-valued expression (loop coordinates via
// LocalUnder, scalar variables, constants).
type Subscript struct {
	Subs []Value
}

// Triplet is one dimension of a Section: the index set Lo:Hi:Step. A Full
// triplet selects the whole declared extent (the ":" subscript). A Scalar
// triplet is a single subscript inside a section reference (A(3,1:5)): it
// selects one index and reduces the section's rank, per Fortran 90 rules.
type Triplet struct {
	Full         bool
	Scalar       bool
	Lo, Hi, Step Value // Step nil means 1; Scalar uses Lo only
}

// Section selects a regular subsection per dimension. Sections are
// produced by lowering of Fortran 90 section syntax and eliminated by the
// optimizer: aligned sections become masked everywhere-moves (Fig. 10),
// misaligned ones become communication.
type Section struct {
	Subs []Triplet
}

func (Everywhere) isField() {}
func (Subscript) isField()  {}
func (Section) isField()    {}

// ---- Imperative domain (I) ----

// Imp is a member of the NIR imperative domain.
type Imp interface {
	isImp()
}

// Program is the top-level program action.
type Program struct {
	Body Imp
}

// Sequentially composes actions for in-order execution.
type Sequentially struct {
	List []Imp
}

// Concurrently composes actions with no ordering constraint.
type Concurrently struct {
	List []Imp
}

// GuardedMove is one (mask, (src, tgt)) element of a MOVE. Pos is the
// source statement the guarded move descends from; it survives blocking
// and fusion (which concatenate move lists) so downstream code
// generators can attribute every emitted instruction to a Fortran line.
type GuardedMove struct {
	Mask Value // nir.True for unconditional
	Src  Value
	Tgt  Value // SVar or AVar
	Pos  source.Pos
}

// Move is MOVE[(mask,(src,tgt)),...]: multiple data movements under masks.
// Over records the common shape the move ranges over — nil for purely
// scalar moves — an annotation the optimizer and partitioner rely on;
// semantically MOVE over shape s equals DO(s, elementwise MOVE) (§3.2).
// Pos is the originating statement of the first guarded move (a fused
// block keeps the position of the statement that opened it).
type Move struct {
	Over  shape.Shape
	Moves []GuardedMove
	Pos   source.Pos
}

// IfThenElse is the classical conditional.
type IfThenElse struct {
	Cond Value
	Then Imp
	Else Imp
}

// While is the classical while-construct.
type While struct {
	Cond Value
	Body Imp
}

// Do is DO(S,I): carry out I at each point of shape S; serial or parallel
// execution depends entirely on S (§3.2). The body addresses the current
// point through LocalUnder values over S.
type Do struct {
	S    shape.Shape
	Body Imp
}

// WithDecl is WITH_DECL(d, I): execute I with declaration d visible.
type WithDecl struct {
	Decl Decl
	Body Imp
}

// WithDomain binds a domain name to a shape for the scope of Body.
type WithDomain struct {
	Name  string
	Shape shape.Shape
	Body  Imp
}

// CallImp invokes a runtime procedure for effect (I/O, diagnostics).
type CallImp struct {
	Name string
	Args []Value
}

// Skip is the empty action, defined as SEQUENTIALLY nil.
type Skip struct{}

func (Program) isImp()      {}
func (Sequentially) isImp() {}
func (Concurrently) isImp() {}
func (Move) isImp()         {}
func (IfThenElse) isImp()   {}
func (While) isImp()        {}
func (Do) isImp()           {}
func (WithDecl) isImp()     {}
func (WithDomain) isImp()   {}
func (CallImp) isImp()      {}
func (Skip) isImp()         {}

// Seq builds a Sequentially, flattening nested Sequentially actions and
// dropping Skips; it returns Skip{} for an empty list and the action
// itself for a singleton.
func Seq(actions ...Imp) Imp {
	var flat []Imp
	var add func(Imp)
	add = func(a Imp) {
		switch a := a.(type) {
		case nil, Skip:
		case Sequentially:
			for _, x := range a.List {
				add(x)
			}
		default:
			flat = append(flat, a)
		}
	}
	for _, a := range actions {
		add(a)
	}
	switch len(flat) {
	case 0:
		return Skip{}
	case 1:
		return flat[0]
	}
	return Sequentially{List: flat}
}
