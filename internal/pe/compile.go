package pe

import (
	"fmt"

	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/peac"
	"f90y/internal/source"
)

// Compiler compiles the computation blocks of one module. It owns the
// one workspace every block's DAG, instruction selection and register
// allocation are built in: Compile resets it — truncating, never
// reallocating — and copies what the Routine keeps (Body, Params) out at
// exact length, so a routine pins none of the workspace. Not safe for
// concurrent use.
type Compiler struct {
	b   builder
	sel selector
	ra  allocator
}

// NewCompiler returns a compiler for blocks over syms at one
// optimization level.
func NewCompiler(syms *lower.SymTab, opts Options) *Compiler {
	c := &Compiler{b: builder{
		opts:    opts,
		syms:    syms,
		memo:    map[nodeKey]*node{},
		version: map[string]int{},
		avail:   map[string]*node{},
	}}
	c.sel.b, c.sel.opts = &c.b, opts
	return c
}

// Stats totals, over every block compiled so far, the DAG vertices built
// and the hash-consing hits (the pe/dag-nodes and pe/cse-hits counters).
func (c *Compiler) Stats() (dagNodes, cseHits int) { return c.b.dagNodes, c.b.cseHits }

// Compile compiles one block with a workspace of its own.
func Compile(name string, m nir.Move, syms *lower.SymTab, opts Options) (*peac.Routine, error) {
	return NewCompiler(syms, opts).Compile(name, m)
}

// Compile reduces one computation block — a fused pointwise MOVE over a
// parallel shape — to a PEAC node procedure. The caller (the CM2/NIR
// compiler) guarantees the move is grid-local; Compile re-validates the
// restriction and reports an error otherwise, allowing the partitioner to
// fall back to host execution.
func (c *Compiler) Compile(name string, m nir.Move) (*peac.Routine, error) {
	b, sel := &c.b, &c.sel
	b.reset()

	// Build the block's DAG in statement order.
	for _, g := range m.Moves {
		var mask *node
		if !nir.EqualValue(g.Mask, nir.True) {
			mn, err := b.value(g.Mask)
			if err != nil {
				return nil, err
			}
			mask = mn
		}
		val, err := b.value(g.Src)
		if err != nil {
			return nil, err
		}
		av, ok := g.Tgt.(nir.AVar)
		if !ok {
			return nil, fmt.Errorf("pe: scalar target %s in computation block", nir.PrintValue(g.Tgt))
		}
		if _, ew := av.Field.(nir.Everywhere); !ew {
			return nil, fmt.Errorf("pe: non-pointwise target %q", av.Name)
		}
		isInt := false
		if sym, found := b.syms.Lookup(av.Name); found {
			isInt = sym.Kind == nir.Integer32
		}
		b.store(av.Name, val, mask, isInt, g.Pos)
	}

	// Anchor position for costs without finer provenance: the block's own
	// statement, or the first positioned store when the block has none.
	anchor := m.Pos
	if !anchor.IsValid() {
		for _, st := range b.stores {
			if st.pos.IsValid() {
				anchor = st.pos
				break
			}
		}
	}

	if err := sel.run(); err != nil {
		return nil, err
	}

	k := b.opts.VRegs
	if k <= 0 {
		k = peac.NumVRegs
	}
	body, slots := c.ra.allocate(sel.instrs, sel.nvreg, k)
	if b.opts.Overlap {
		body = overlap(body)
	}

	r := &peac.Routine{
		Name:       name,
		Params:     append([]peac.Param(nil), sel.params...),
		Body:       make([]peac.Instr, len(body)+1),
		SpillSlots: slots,
		Pos:        anchor,
	}
	copy(r.Body, body)
	r.Body[len(body)] = peac.Instr{Op: peac.JNZ, Pos: anchor}
	return r, nil
}

// selector turns the DAG into virtual-register PEAC instructions. Like
// the builder it is workspace: run resets it.
type selector struct {
	b      *builder
	opts   Options
	instrs []peac.Instr
	params []peac.Param

	// By node id: whether the node has been emitted, and its operand.
	emitted []bool
	operand []peac.Operand
	nvreg   int
	nextPtr int // pointer register counter (aP2 upward, as in Fig. 12)
	nextS   int // scalar register counter (aS16 upward)

	// curPos is the source position of the store whose cone is being
	// emitted; every instruction appended while it is set inherits it.
	// CSE'd nodes are attributed to their first emitter.
	curPos source.Pos
}

// resized returns s with length n and every element zero, reusing its
// memory when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (s *selector) reset() {
	n := len(s.b.nodes)
	s.instrs, s.params = s.instrs[:0], s.params[:0]
	s.emitted, s.operand = resized(s.emitted, n), resized(s.operand, n)
	s.nvreg, s.nextPtr, s.nextS = 0, 2, 16
}

func (s *selector) run() error {
	s.reset()
	s.countUses()
	if s.opts.Fmadd {
		s.markFmadds()
	}
	for _, st := range s.b.stores {
		s.curPos = st.pos
		if st.mask != nil {
			if err := s.emit(st.mask); err != nil {
				return err
			}
		}
		if err := s.emit(st.val); err != nil {
			return err
		}
		// Target stream pointer.
		ptr := s.newPtr(peac.Param{Kind: peac.ArrayParam, Name: st.array})
		in := peac.Instr{Op: peac.FSTRV, A: s.operandOf(st.val), D: peac.M(ptr), Pos: st.pos}
		if st.mask != nil {
			in.C = s.operandOf(st.mask)
		}
		s.instrs = append(s.instrs, in)
	}
	return nil
}

// countUses tallies operand references reachable from the stores. A
// node's own count doubles as its visited mark.
func (s *selector) countUses() {
	for _, st := range s.b.stores {
		if st.mask != nil {
			countUses(st.mask)
		}
		countUses(st.val)
	}
}

func countUses(n *node) {
	n.uses++
	if n.uses > 1 {
		return
	}
	for _, a := range n.args[:n.nargs] {
		countUses(a)
	}
}

// markFmadds fuses single-use multiplies feeding adds/subtracts into
// chained multiply-add candidates.
func (s *selector) markFmadds() {
	for _, n := range s.b.nodes {
		if n.op != opBin || (n.bin != nir.Plus && n.bin != nir.Minus) || n.isInt {
			continue
		}
		l, r := n.args[0], n.args[1]
		// Minus(Mul(a,b), c) -> fmsub; Plus(Mul(a,b), c) or
		// Plus(c, Mul(a,b)) -> fmadd.
		if isMul(l) && l.uses == 1 && !l.isInt {
			l.fused = true
			continue
		}
		if n.bin == nir.Plus && isMul(r) && r.uses == 1 && !r.isInt {
			r.fused = true
		}
	}
}

func isMul(n *node) bool { return n.op == opBin && n.bin == nir.Mul }

func (s *selector) newPtr(p peac.Param) int {
	p.Reg = s.nextPtr
	s.nextPtr++
	s.params = append(s.params, p)
	return p.Reg
}

func (s *selector) newScalar(p peac.Param) int {
	p.Reg = s.nextS
	s.nextS++
	s.params = append(s.params, p)
	return p.Reg
}

func (s *selector) newVReg() peac.Operand {
	v := peac.V(s.nvreg)
	s.nvreg++
	return v
}

func (s *selector) operandOf(n *node) peac.Operand {
	if op := s.operand[n.id]; op.Kind != peac.NoOperand {
		return op
	}
	panic("pe: operand requested before emission for node")
}

// chainable reports whether n can fold into an arithmetic instruction as
// its memory operand.
func (s *selector) chainable(n *node) bool {
	return s.opts.Chaining && n.op == opLoad && n.uses == 1 && !s.emitted[n.id] && !n.chain
}

var cmpKind = map[nir.BinOp]peac.CmpKind{
	nir.Equals: peac.CmpEQ, nir.NotEquals: peac.CmpNE,
	nir.Less: peac.CmpLT, nir.LessEq: peac.CmpLE,
	nir.Greater: peac.CmpGT, nir.GreaterEq: peac.CmpGE,
}

var binOpcode = map[nir.BinOp]peac.Opcode{
	nir.Plus: peac.FADDV, nir.Minus: peac.FSUBV, nir.Mul: peac.FMULV,
	nir.Div: peac.FDIVV, nir.Mod: peac.FMODV, nir.Min: peac.FMINV, nir.Max: peac.FMAXV,
	nir.AndOp: peac.FANDV, nir.OrOp: peac.FORV, nir.EqvOp: peac.FEQVV, nir.NeqvOp: peac.FNEQV,
}

var unOpcode = map[nir.UnOp]peac.Opcode{
	nir.Neg: peac.FNEGV, nir.NotU: peac.FNOTV, nir.Abs: peac.FABSV,
	nir.Sqrt: peac.FSQRTV, nir.Sin: peac.FSINV, nir.Cos: peac.FCOSV,
	nir.Tan: peac.FTANV, nir.Exp: peac.FEXPV, nir.Log: peac.FLOGV,
	nir.ToInteger32: peac.FTRNCV,
}

// emit lowers a node (and its operands) to instructions, lazily so loads
// appear adjacent to their first use.
func (s *selector) emit(n *node) error {
	if s.emitted[n.id] {
		return nil
	}
	s.emitted[n.id] = true

	switch n.op {
	case opConst:
		reg := s.newScalar(peac.Param{Kind: peac.ConstParam, Value: n.cval, IsInt: n.isInt})
		s.operand[n.id] = peac.S(reg)
		return nil
	case opScalar:
		reg := s.newScalar(peac.Param{Kind: peac.ScalarParam, Name: n.sname, IsInt: n.isInt})
		s.operand[n.id] = peac.S(reg)
		return nil
	case opLoad:
		ptr := s.newPtr(peac.Param{Kind: peac.ArrayParam, Name: n.array, IsInt: n.isInt})
		if n.chain {
			s.operand[n.id] = peac.M(ptr)
			return nil
		}
		d := s.newVReg()
		s.instrs = append(s.instrs, peac.Instr{Op: peac.FLODV, A: peac.M(ptr), D: d, Pos: s.curPos})
		s.operand[n.id] = d
		return nil
	case opCoord:
		ptr := s.newPtr(peac.Param{Kind: peac.CoordParam, Dim: n.dim, IsInt: true})
		d := s.newVReg()
		s.instrs = append(s.instrs, peac.Instr{Op: peac.FLODV, A: peac.M(ptr), D: d, Pos: s.curPos})
		s.operand[n.id] = d
		return nil
	case opUn:
		if n.un == nir.ToFloat64 || n.un == nir.ToFloat32 {
			// Pure retag: share the operand.
			if err := s.emit(n.args[0]); err != nil {
				return err
			}
			s.operand[n.id] = s.operandOf(n.args[0])
			return nil
		}
		if err := s.emit(n.args[0]); err != nil {
			return err
		}
		op, ok := unOpcode[n.un]
		if !ok {
			return fmt.Errorf("pe: no PEAC encoding for unary %v", n.un)
		}
		d := s.newVReg()
		s.instrs = append(s.instrs, peac.Instr{Op: op, A: s.operandOf(n.args[0]), D: d, IntOp: n.isInt, Pos: s.curPos})
		s.operand[n.id] = d
		return nil
	case opCmp:
		return s.emitBinLike(n, peac.FCMPV)
	case opBin:
		if fused, c, isSub, swapped := s.fmaddParts(n); fused != nil {
			return s.emitFmadd(n, fused, c, isSub, swapped)
		}
		op, ok := binOpcode[n.bin]
		if !ok {
			return fmt.Errorf("pe: no PEAC encoding for binary %v", n.bin)
		}
		return s.emitBinLike(n, op)
	case opSel:
		for _, a := range n.args[:n.nargs] {
			if err := s.emit(a); err != nil {
				return err
			}
		}
		d := s.newVReg()
		s.instrs = append(s.instrs, peac.Instr{Op: peac.FSELV,
			A: s.operandOf(n.args[1]), B: s.operandOf(n.args[2]),
			C: s.operandOf(n.args[0]), D: d, Pos: s.curPos})
		s.operand[n.id] = d
		return nil
	}
	return fmt.Errorf("pe: unknown node op %d", n.op)
}

// fmaddParts returns the fused multiply operand of an add/sub node, if
// the fmadd pass marked one.
func (s *selector) fmaddParts(n *node) (mul, addend *node, isSub, swapped bool) {
	if n.op != opBin || (n.bin != nir.Plus && n.bin != nir.Minus) {
		return nil, nil, false, false
	}
	l, r := n.args[0], n.args[1]
	if l.fused && isMul(l) {
		return l, r, n.bin == nir.Minus, false
	}
	if n.bin == nir.Plus && r.fused && isMul(r) {
		return r, l, false, true
	}
	return nil, nil, false, false
}

func (s *selector) emitFmadd(n, mul, addend *node, isSub, _ bool) error {
	for _, a := range [3]*node{mul.args[0], mul.args[1], addend} {
		if err := s.emit(a); err != nil {
			return err
		}
	}
	op := peac.FMADDV
	if isSub {
		op = peac.FMSUBV
	}
	d := s.newVReg()
	s.instrs = append(s.instrs, peac.Instr{Op: op,
		A: s.operandOf(mul.args[0]), B: s.operandOf(mul.args[1]),
		C: s.operandOf(addend), D: d, Pos: s.curPos})
	s.operand[n.id] = d
	s.operand[mul.id] = d // fused: no separate result
	s.emitted[mul.id] = true
	return nil
}

// emitBinLike handles two-source instructions with optional memory
// chaining of one operand.
func (s *selector) emitBinLike(n *node, op peac.Opcode) error {
	l, r := n.args[0], n.args[1]
	// Prefer chaining the right operand (Fig. 12 folds the subtrahend).
	var chained *node
	if s.chainable(r) {
		r.chain = true
		chained = r
	} else if s.chainable(l) {
		l.chain = true
		chained = l
	}
	if err := s.emit(l); err != nil {
		return err
	}
	if err := s.emit(r); err != nil {
		return err
	}
	_ = chained
	d := s.newVReg()
	in := peac.Instr{Op: op, A: s.operandOf(l), B: s.operandOf(r), D: d, IntOp: n.isInt, Pos: s.curPos}
	if op == peac.FCMPV {
		in.Cmp = cmpKind[n.cmp]
	}
	s.instrs = append(s.instrs, in)
	s.operand[n.id] = d
	return nil
}
