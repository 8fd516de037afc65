package pe

import (
	"math"
	"slices"

	"f90y/internal/peac"
)

// allocator is the register allocator's share of a Compiler's
// workspace; allocate resets it.
type allocator struct {
	uses     [][]int // use positions per virtual register
	physOf   []int   // vreg -> phys, -1 if not resident
	slotOf   []int   // vreg -> spill slot, -1 if none
	resident []int   // phys -> vreg, -1 if free
	out      []peac.Instr
}

// vregSources lists the distinct virtual registers an instruction reads,
// in operand order (A, B, C). The order is the allocator's only tie-break
// between an instruction's sources, so the listing a block compiles to is
// a function of the block alone.
func vregSources(in peac.Instr) (srcs [3]int, n int) {
	for _, o := range in.Sources() {
		if o.Kind == peac.VReg && !slices.Contains(srcs[:n], o.N) {
			srcs[n] = o.N
			n++
		}
	}
	return srcs, n
}

// allocate maps virtual vector registers onto the eight architected
// registers by lifetime analysis over the single basic block (§5.2:
// "because such a virtual subgrid loop with purely local references can be
// represented graphically as one basic block with a single back-edge,
// register allocation can be optimized"). When pressure exceeds the file,
// the live value with the farthest next use is spilled (Belady's rule);
// values are SSA within the block, so a value already written to its spill
// slot is never stored twice. The result is workspace memory, valid until
// the next call.
func (a *allocator) allocate(instrs []peac.Instr, nvreg, K int) ([]peac.Instr, int) {
	const inf = math.MaxInt

	for len(a.uses) < nvreg {
		a.uses = append(a.uses, nil)
	}
	uses := a.uses[:nvreg]
	for v := range uses {
		uses[v] = uses[v][:0]
	}
	for i, in := range instrs {
		for _, o := range in.Sources() {
			if o.Kind == peac.VReg {
				uses[o.N] = append(uses[o.N], i)
			}
		}
	}
	nextUse := func(v, after int) int {
		for _, u := range uses[v] {
			if u >= after {
				return u
			}
		}
		return inf
	}

	a.physOf, a.slotOf, a.resident = resized(a.physOf, nvreg), resized(a.slotOf, nvreg), resized(a.resident, K)
	physOf, slotOf, resident := a.physOf, a.slotOf, a.resident
	for i := range physOf {
		physOf[i] = -1
		slotOf[i] = -1
	}
	for i := range resident {
		resident[i] = -1
	}
	slots := 0
	out := a.out[:0]
	if cap(out) < len(instrs) {
		out = make([]peac.Instr, 0, len(instrs)+len(instrs)/4)
	}

	// allocPhys finds a register, spilling the farthest-next-used value if
	// necessary; the vregs in keep must not be evicted.
	allocPhys := func(at int, keep []int) int {
		if p := slices.Index(resident, -1); p >= 0 {
			return p
		}
		victim, victimNext := -1, -1
		for p := 0; p < K; p++ {
			v := resident[p]
			if slices.Contains(keep, v) {
				continue
			}
			nu := nextUse(v, at)
			if nu > victimNext {
				victim, victimNext = p, nu
			}
		}
		if victim < 0 {
			panic("pe: register pressure exceeds file with all sources live")
		}
		v := resident[victim]
		if slotOf[v] == -1 && victimNext != inf {
			// Value still needed later: write it to its spill slot.
			slotOf[v] = slots
			slots++
			// The spill is attributed to the instruction whose pressure
			// forced it, keeping spill cycles on the line that caused them.
			out = append(out, peac.Instr{Op: peac.SPILLV, A: peac.V(victim), D: peac.Slot(slotOf[v]), Pos: instrs[at].Pos})
		}
		physOf[v] = -1
		resident[victim] = -1
		return victim
	}

	rewrite := func(o peac.Operand) peac.Operand {
		if o.Kind == peac.VReg {
			return peac.V(physOf[o.N])
		}
		return o
	}

	for i := range instrs {
		in := instrs[i]
		srcArr, n := vregSources(in)
		srcs := srcArr[:n]
		// Restore spilled sources; the others must survive meanwhile.
		for _, v := range srcs {
			if physOf[v] >= 0 {
				continue
			}
			p := allocPhys(i, srcs)
			out = append(out, peac.Instr{Op: peac.RESTV, A: peac.Slot(slotOf[v]), D: peac.V(p), Pos: in.Pos})
			physOf[v] = p
			resident[p] = v
		}
		// Rewrite sources now that residency is settled.
		in.A = rewrite(in.A)
		in.B = rewrite(in.B)
		in.C = rewrite(in.C)

		// Free sources that die here.
		for _, v := range srcs {
			if nextUse(v, i+1) == inf {
				resident[physOf[v]] = -1
				physOf[v] = -1
			}
		}
		// Allocate the destination; surviving sources keep their registers.
		if in.D.Kind == peac.VReg {
			dv := in.D.N
			p := allocPhys(i, srcs)
			physOf[dv] = p
			resident[p] = dv
			in.D = peac.V(p)
		}
		out = append(out, in)
	}
	a.out = out
	return out, slots
}

// overlap dual-issues memory operations with the preceding arithmetic
// instruction where no register dependence forbids it, modelling §5.2:
// "we overlap the resulting memory accesses with computation where
// possible to minimize lost cycles" and Fig. 12's comma-paired lines.
func overlap(body []peac.Instr) []peac.Instr {
	for i := 0; i+1 < len(body); i++ {
		cur := body[i]
		next := body[i+1]
		if cur.Paired || next.Paired {
			continue
		}
		if !cur.Arithmetic() || cur.MemOperand() {
			continue // the arithmetic op must leave the memory port free
		}
		switch next.Op {
		case peac.FLODV, peac.RESTV:
			if next.D == cur.D {
				continue
			}
		case peac.FSTRV, peac.SPILLV:
			// A store may not issue with the op computing its operand.
			if next.A == cur.D || (next.C.Kind == peac.VReg && next.C == cur.D) {
				continue
			}
		default:
			continue
		}
		body[i+1].Paired = true
		i++ // pairs are width two
	}
	return body
}
