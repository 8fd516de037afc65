// Package pe implements the PE/NIR compiler of §5.2: it reduces a
// restricted class of NIR programs — a single virtual-subgrid loop whose
// body is a sequence of optionally-masked pointwise moves — to PEAC node
// procedures, "carefully tuned for optimizing the loop over local data in
// each processor".
//
// The compiler builds an expression DAG per computation block (enabling
// cross-statement value reuse and store-to-load forwarding), selects
// instructions with chained multiply-add fusion and memory-operand
// chaining, allocates the eight vector registers by lifetime analysis with
// Belady spilling (a spill/restore pair costs 18 cycles), and finally
// overlaps memory traffic with computation by dual-issue pairing.
package pe

import (
	"fmt"
	"math"

	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/source"
)

// Options selects the §5.2 optimizations individually, supporting the
// Fig. 12 naive/optimized comparison and the ablation benchmarks.
type Options struct {
	CSE      bool // cross-statement common-subexpression elimination + forwarding
	Chaining bool // one in-memory operand substituted for a register operand
	Fmadd    bool // multiply-add sequences become chained multiply-adds
	Overlap  bool // loads/stores overlapped with computation (dual issue)
	// VRegs overrides the vector register file size for the allocator;
	// zero means the architected peac.NumVRegs. "Vector registers tend to
	// be the limiting resource" (§5.2) — the register-file ablation sweeps
	// this.
	VRegs int
}

// Optimized enables every PE optimization.
var Optimized = Options{CSE: true, Chaining: true, Fmadd: true, Overlap: true}

// Naive disables everything, matching Fig. 12's naive encoding.
var Naive = Options{}

// nodeOp classifies DAG nodes.
type nodeOp int

const (
	opLoad   nodeOp = iota // element of an array stream
	opCoord                // local coordinate along a dimension of the shape
	opScalar               // broadcast front-end scalar
	opConst                // immediate constant
	opBin
	opUn
	opCmp
	opSel // sel(cond, a, b)
)

// node is one DAG vertex.
type node struct {
	id    int
	op    nodeOp
	bin   nir.BinOp
	un    nir.UnOp
	cmp   nir.BinOp // comparison kind for opCmp
	args  [3]*node  // the first nargs are operands
	nargs int
	array string  // opLoad
	ver   int     // load version (invalidated by stores)
	dim   int     // opCoord
	sname string  // opScalar
	cval  float64 // opConst
	isInt bool    // integer value semantics
	uses  int
	fused bool // consumed into an fmadd; no instruction emitted
	chain bool // folded as a memory operand; no separate load emitted
}

// nodeKey is a node's identity for hash-consing: two values with one key
// are one DAG vertex. It is compared by value, never formatted. op is
// the BinOp or UnOp; a, b, c are operand ids (a load's store version, a
// coordinate's dimension); a constant keys on its bit pattern, because
// 0.0 == -0.0 as floats while 1/x tells them apart. A load's version is
// what keeps a read after a masked store apart from the read before it.
type nodeKey struct {
	kind    nodeOp
	op      int32
	a, b, c int32
	name    string
	bits    uint64
	isInt   bool
}

// storeEffect is one array store in block order. pos is the source
// statement of the guarded move the store implements; the selector
// attributes every instruction emitted for this store's cone to it.
type storeEffect struct {
	array string
	val   *node
	mask  *node // nil = unconditional
	pos   source.Pos
}

// nodeChunk is the arena's growth step: nodes are handed out of fixed
// chunks so a *node stays valid while the arena grows.
const nodeChunk = 256

// builder constructs the DAG for one computation block. It is part of a
// Compiler's workspace: reset empties it and keeps its memory.
type builder struct {
	opts    Options
	syms    *lower.SymTab
	chunks  [][]node
	nodes   []*node           // by id
	memo    map[nodeKey]*node // hash-consing (CSE)
	version map[string]int    // store counters per array
	avail   map[string]*node  // store-to-load forwarding values
	stores  []storeEffect

	dagNodes, cseHits int // totals over every block, never reset
}

func (b *builder) reset() {
	b.nodes = b.nodes[:0]
	b.stores = b.stores[:0]
	clear(b.memo)
	clear(b.version)
	clear(b.avail)
}

// intern returns the node of a key: the memoized one under CSE, or a
// zeroed fresh one (fresh=true) the caller fills in.
func (b *builder) intern(key nodeKey) (n *node, fresh bool) {
	if b.opts.CSE {
		if n, ok := b.memo[key]; ok {
			b.cseHits++
			return n, false
		}
	}
	b.dagNodes++
	id := len(b.nodes)
	if id/nodeChunk == len(b.chunks) {
		b.chunks = append(b.chunks, make([]node, nodeChunk))
	}
	n = &b.chunks[id/nodeChunk][id%nodeChunk]
	*n = node{id: id}
	b.nodes = append(b.nodes, n)
	if b.opts.CSE {
		b.memo[key] = n
	}
	return n, true
}

func (b *builder) load(array string, isInt bool) *node {
	if b.opts.CSE {
		if v, ok := b.avail[array]; ok {
			return v // forwarded from a prior store in this block
		}
	}
	ver := b.version[array]
	n, fresh := b.intern(nodeKey{kind: opLoad, name: array, a: int32(ver)})
	if fresh {
		n.op, n.array, n.ver, n.isInt = opLoad, array, ver, isInt
	}
	return n
}

func (b *builder) coord(dim int) *node {
	n, fresh := b.intern(nodeKey{kind: opCoord, a: int32(dim)})
	if fresh {
		n.op, n.dim, n.isInt = opCoord, dim, true
	}
	return n
}

func (b *builder) scalar(name string, isInt bool) *node {
	n, fresh := b.intern(nodeKey{kind: opScalar, name: name})
	if fresh {
		n.op, n.sname, n.isInt = opScalar, name, isInt
	}
	return n
}

func (b *builder) constant(v float64, isInt bool) *node {
	n, fresh := b.intern(nodeKey{kind: opConst, bits: math.Float64bits(v), isInt: isInt})
	if fresh {
		n.op, n.cval, n.isInt = opConst, v, isInt
	}
	return n
}

func (b *builder) binary(op nir.BinOp, l, r *node) *node {
	key := nodeKey{kind: opBin, op: int32(op), a: int32(l.id), b: int32(r.id), isInt: l.isInt && r.isInt}
	if op.Comparison() || op.Logical() {
		key.kind, key.isInt = opCmp, false
	}
	n, fresh := b.intern(key)
	if fresh {
		n.args, n.nargs, n.isInt = [3]*node{l, r}, 2, key.isInt
		if op.Comparison() {
			n.op, n.cmp = opCmp, op
		} else {
			n.op, n.bin = opBin, op
		}
	}
	return n
}

func (b *builder) unary(op nir.UnOp, x *node) *node {
	isInt := x.isInt
	switch op {
	case nir.ToFloat64, nir.ToFloat32:
		if !x.isInt {
			return x // all lanes are 64-bit already
		}
		// A pure reinterpretation: integers are stored exactly in f64
		// lanes, so conversion is a semantic retag, not an instruction.
		op, isInt = nir.ToFloat64, false
	case nir.ToInteger32:
		if x.isInt {
			return x
		}
		isInt = true
	}
	n, fresh := b.intern(nodeKey{kind: opUn, op: int32(op), a: int32(x.id)})
	if fresh {
		n.op, n.un, n.args, n.nargs, n.isInt = opUn, op, [3]*node{x}, 1, isInt
	}
	return n
}

func (b *builder) sel(cond, t, f *node) *node {
	n, fresh := b.intern(nodeKey{kind: opSel, a: int32(cond.id), b: int32(t.id), c: int32(f.id)})
	if fresh {
		n.op, n.args, n.nargs, n.isInt = opSel, [3]*node{cond, t, f}, 3, t.isInt && f.isInt
	}
	return n
}

// store records a (possibly masked) array store and updates forwarding
// state.
func (b *builder) store(array string, val *node, mask *node, isInt bool, pos source.Pos) {
	if isInt && !val.isInt {
		val = b.unary(nir.ToInteger32, val)
	}
	b.stores = append(b.stores, storeEffect{array: array, val: val, mask: mask, pos: pos})
	if mask == nil {
		b.avail[array] = val
	} else {
		// Later loads of this array see sel(mask, val, old).
		old := b.load(array, isInt)
		b.avail[array] = b.sel(mask, val, old)
	}
	b.version[array]++
}

// value lowers a NIR value to a DAG node.
func (b *builder) value(v nir.Value) (*node, error) {
	switch v := v.(type) {
	case nir.Const:
		switch v.Type.Kind {
		case nir.Integer32:
			return b.constant(float64(v.I), true), nil
		case nir.Logical32:
			f := 0.0
			if v.B {
				f = 1
			}
			return b.constant(f, false), nil
		default:
			return b.constant(v.F, false), nil
		}
	case nir.SVar:
		isInt := false
		if sym, ok := b.syms.Lookup(v.Name); ok {
			isInt = sym.Kind == nir.Integer32
		}
		return b.scalar(v.Name, isInt), nil
	case nir.AVar:
		if _, ok := v.Field.(nir.Everywhere); !ok {
			return nil, fmt.Errorf("pe: non-pointwise reference to %q", v.Name)
		}
		isInt := false
		if sym, ok := b.syms.Lookup(v.Name); ok {
			isInt = sym.Kind == nir.Integer32
		}
		return b.load(v.Name, isInt), nil
	case nir.LocalUnder:
		return b.coord(v.Dim), nil
	case nir.Binary:
		if v.Op == nir.Pow {
			return b.power(v)
		}
		l, err := b.value(v.L)
		if err != nil {
			return nil, err
		}
		r, err := b.value(v.R)
		if err != nil {
			return nil, err
		}
		return b.binary(v.Op, l, r), nil
	case nir.Unary:
		x, err := b.value(v.X)
		if err != nil {
			return nil, err
		}
		return b.unary(v.Op, x), nil
	case nir.FcnCall:
		return nil, fmt.Errorf("pe: runtime call %q inside computation block", v.Name)
	}
	return nil, fmt.Errorf("pe: unsupported value %T", v)
}

// power strength-reduces X**N for small constant integer exponents into
// multiplications; general real exponents become exp(log(x)*y).
func (b *builder) power(v nir.Binary) (*node, error) {
	base, err := b.value(v.L)
	if err != nil {
		return nil, err
	}
	if c, ok := v.R.(nir.Const); ok && c.Type.Kind == nir.Integer32 {
		n := c.I
		neg := n < 0
		if neg {
			if base.isInt {
				return nil, fmt.Errorf("pe: negative integer exponent on integer base")
			}
			n = -n
		}
		if n > 64 {
			return nil, fmt.Errorf("pe: constant exponent %d too large", n)
		}
		var acc *node
		if n == 0 {
			acc = b.constant(1, base.isInt)
		} else {
			acc = base
			for k := int64(1); k < n; k++ {
				acc = b.binary(nir.Mul, acc, base)
			}
		}
		if neg {
			one := b.constant(1, false)
			acc = b.binary(nir.Div, one, acc)
		}
		return acc, nil
	}
	exp, err := b.value(v.R)
	if err != nil {
		return nil, err
	}
	if base.isInt || exp.isInt {
		return nil, fmt.Errorf("pe: non-constant integer exponent unsupported on the PE")
	}
	return b.unary(nir.Exp, b.binary(nir.Mul, b.unary(nir.Log, base), exp)), nil
}
