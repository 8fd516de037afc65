package opt

import (
	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/shape"
)

// Options selects which transformations run. The CMF-like baseline
// (internal/cmf) disables BlockDomains to model per-statement compilation.
type Options struct {
	// PadSections converts aligned section moves to full-shape masked
	// moves (Fig. 10).
	PadSections bool
	// BlockDomains reorders and fuses like-shape compute moves into
	// single computation blocks (Fig. 9).
	BlockDomains bool
}

// Default enables every transformation.
var Default = Options{PadSections: true, BlockDomains: true}

// Stats reports what the optimizer did.
type Stats struct {
	PaddedMoves  int // section moves converted to masked full-shape moves
	FusedMoves   int // moves absorbed into an earlier computation block
	HoistedComms int // communications moved up to cluster with earlier ones
	FusedLoops   int // adjacent independent serial DO loops merged
}

// sameSerialSpace reports whether two serial shapes iterate the same
// index set (tags excluded — they only name loops).
func sameSerialSpace(a, b shape.Shape) bool {
	ia, ok1 := a.(shape.Interval)
	ib, ok2 := b.(shape.Interval)
	return ok1 && ok2 && ia.Serial && ib.Serial && ia.Lo == ib.Lo && ia.Hi == ib.Hi
}

// retagLoop rewrites a loop body's local_under references from its own
// shape onto the fusion target's shape, in every value position (moves,
// conditions, call arguments).
func retagLoop(d nir.Do, target shape.Shape) nir.Do {
	from := d.S
	rt := func(v nir.Value) nir.Value {
		if v == nil {
			return nil
		}
		return nir.RewriteValues(v, func(x nir.Value) nir.Value {
			if lu, isLU := x.(nir.LocalUnder); isLU && shape.Equal(lu.S, from) {
				return nir.LocalUnder{S: target, Dim: lu.Dim}
			}
			return x
		})
	}
	body := nir.RewriteImps(d.Body, func(a nir.Imp) nir.Imp {
		switch a := a.(type) {
		case nir.Move:
			out := nir.Move{Over: a.Over, Moves: make([]nir.GuardedMove, len(a.Moves)), Pos: a.Pos}
			for i, g := range a.Moves {
				out.Moves[i] = nir.GuardedMove{Mask: rt(g.Mask), Src: rt(g.Src), Tgt: rt(g.Tgt), Pos: g.Pos}
			}
			return out
		case nir.IfThenElse:
			a.Cond = rt(a.Cond)
			return a
		case nir.While:
			a.Cond = rt(a.Cond)
			return a
		case nir.CallImp:
			args := make([]nir.Value, len(a.Args))
			for i, x := range a.Args {
				args[i] = rt(x)
			}
			a.Args = args
			return a
		default:
			return a
		}
	})
	return nir.Do{S: target, Body: body}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// replaceBody substitutes the executable action inside the
// PROGRAM/WITH_DOMAIN/WITH_DECL wrapper chain.
func replaceBody(prog nir.Imp, body nir.Imp) nir.Imp {
	switch p := prog.(type) {
	case nir.Program:
		p.Body = replaceBody(p.Body, body)
		return p
	case nir.WithDomain:
		p.Body = replaceBody(p.Body, body)
		return p
	case nir.WithDecl:
		p.Body = body
		return p
	default:
		return body
	}
}

type optimizer struct {
	cls   *Classifier
	opts  Options
	stats Stats
	// verdicts carries each unpadded move's classification from the pad
	// pass to the blocking pass. A Move is a value, so its identity is
	// its first guarded move; a padded move is a new move and is
	// classified afresh.
	verdicts map[*nir.GuardedMove]Verdict
}

// verdict classifies an action, once across the passes.
func (o *optimizer) verdict(a nir.Imp) Verdict {
	m, ok := a.(nir.Move)
	if !ok {
		return Verdict{Class: Host}
	}
	if len(m.Moves) > 0 {
		if v, ok := o.verdicts[&m.Moves[0]]; ok {
			return v
		}
	}
	return o.cls.ClassifyMove(m)
}

// rewrite transforms one action, recursing into composite bodies.
func (o *optimizer) rewrite(a nir.Imp) nir.Imp {
	switch a := a.(type) {
	case nir.Sequentially:
		return o.blockList(a.List)
	case nir.Move:
		return o.blockList([]nir.Imp{a})
	case nir.IfThenElse:
		a.Then = o.rewrite(a.Then)
		a.Else = o.rewrite(a.Else)
		return a
	case nir.While:
		a.Body = o.rewrite(a.Body)
		return a
	case nir.Do:
		a.Body = o.rewrite(a.Body)
		return a
	case nir.WithDecl:
		a.Body = o.rewrite(a.Body)
		return a
	case nir.WithDomain:
		a.Body = o.rewrite(a.Body)
		return a
	case nir.Program:
		a.Body = o.rewrite(a.Body)
		return a
	default:
		return a
	}
}

// block is one phase of the execution partition: a run of fused compute
// moves over a common shape, or a single communication/host action.
type block struct {
	class  Class
	over   shape.Shape
	dist   shape.Distribution // compute blocks: the moves' explicit layout
	moves  []nir.Move         // compute blocks only
	action nir.Imp            // comm/host blocks
	reads  nir.Names
	writes nir.Names
}

func conflicts(b *block, r, w nir.Names) bool {
	return w.Intersects(b.reads) || w.Intersects(b.writes) || r.Intersects(b.writes)
}

// blockList performs the execution-partition and domain-blocking
// transformation (§4.2) over one statement sequence: each action is
// padded, classified, and — when it is a pointwise compute move — hoisted
// past independent later-listed phases into the deepest preceding
// computation block of congruent shape. Pointwise moves over a common
// shape compose exactly (shapewise loop fusion), so fusing into a block
// never changes semantics; only the hoisting requires the dependence
// check.
func (o *optimizer) blockList(list []nir.Imp) nir.Imp {
	var blocks []*block
	add := func(a nir.Imp) {
		v := o.verdict(a)
		cl := v.Class
		r, w := nir.Reads(a), nir.Writes(a)
		if cl == Comm && o.opts.BlockDomains {
			// Hoist communication to the earliest legal point: just after
			// the previous communication group or the action it depends
			// on. Clustering communications maximizes the length of the
			// aligned-computation blocks between them (§4.2).
			pos := 0
			for i := len(blocks) - 1; i >= 0; i-- {
				if blocks[i].class == Comm || conflicts(blocks[i], r, w) {
					pos = i + 1
					break
				}
			}
			nb := &block{class: Comm, action: a, reads: r, writes: w}
			blocks = append(blocks, nil)
			copy(blocks[pos+1:], blocks[pos:])
			blocks[pos] = nb
			o.stats.HoistedComms += boolToInt(pos != len(blocks)-1)
			return
		}
		if cl == Host && o.opts.BlockDomains {
			// Serial-loop fusion ("the shape equivalent of loop fusion",
			// §4.2, applied to DO): an adjacent pair of serial loops over
			// identical iteration spaces with independent bodies becomes
			// one loop. Conservative independence: the loops share no
			// storage at all, so any interleaving is equivalent.
			if d, ok := a.(nir.Do); ok {
				for i := len(blocks) - 1; i >= 0; i-- {
					b := blocks[i]
					ld, isDo := b.action.(nir.Do)
					if isDo && b.class == Host && sameSerialSpace(ld.S, d.S) &&
						!conflicts(b, r, w) {
						retagged := retagLoop(d, ld.S)
						b.action = nir.Do{S: ld.S, Body: nir.Seq(ld.Body, retagged.Body)}
						b.reads, b.writes = b.reads.Union(r), b.writes.Union(w)
						o.stats.FusedLoops++
						return
					}
					if conflicts(b, r, w) {
						break
					}
				}
			}
		}
		if cl == Compute {
			// Section padding has already run as its own pass
			// (pad-sections); compute moves arrive here in final form.
			m := a.(nir.Move)
			rank := shape.Rank(m.Over)
			if o.opts.BlockDomains {
				for i := len(blocks) - 1; i >= 0; i-- {
					b := blocks[i]
					if b.class == Compute && shape.Congruent(b.over, m.Over) &&
						b.dist.Equal(v.Dist, rank) {
						b.moves = append(b.moves, m)
						b.reads, b.writes = b.reads.Union(r), b.writes.Union(w)
						o.stats.FusedMoves++
						return
					}
					if conflicts(b, r, w) {
						break
					}
				}
			}
			blocks = append(blocks, &block{class: Compute, over: m.Over, dist: v.Dist,
				moves: []nir.Move{m}, reads: r, writes: w})
			return
		}
		blocks = append(blocks, &block{class: cl, action: a, reads: r, writes: w})
	}

	for _, a := range list {
		a = o.rewrite1(a)
		// Flatten nested sequences produced by recursion.
		if seq, ok := a.(nir.Sequentially); ok {
			for _, x := range seq.List {
				add(x)
			}
			continue
		}
		if _, ok := a.(nir.Skip); ok {
			continue
		}
		add(a)
	}

	var out []nir.Imp
	for _, b := range blocks {
		if b.class != Compute {
			out = append(out, b.action)
			continue
		}
		fused := nir.Move{Over: b.over}
		for _, m := range b.moves {
			if !fused.Pos.IsValid() {
				fused.Pos = m.Pos
			}
			fused.Moves = append(fused.Moves, m.Moves...)
		}
		out = append(out, fused)
	}
	return nir.Seq(out...)
}

// rewrite1 recurses into a single non-sequence action.
func (o *optimizer) rewrite1(a nir.Imp) nir.Imp {
	switch a.(type) {
	case nir.Sequentially, nir.Move, nir.Skip:
		if seq, ok := a.(nir.Sequentially); ok {
			return o.blockList(seq.List)
		}
		return a
	default:
		return o.rewrite(a)
	}
}

// Phases summarizes the top-level execution partition of an action: the
// classified phases in order. It is the measurement used by the Fig. 9
// and Fig. 11 experiments.
func Phases(a nir.Imp, syms *lower.SymTab) []Class {
	cls := &Classifier{Syms: syms}
	var list []nir.Imp
	if seq, ok := a.(nir.Sequentially); ok {
		list = seq.List
	} else {
		list = []nir.Imp{a}
	}
	out := make([]Class, 0, len(list))
	for _, x := range list {
		if _, ok := x.(nir.Skip); ok {
			continue
		}
		out = append(out, cls.Classify(x))
	}
	return out
}

// CountClass counts phases of one class.
func CountClass(phases []Class, c Class) int {
	n := 0
	for _, p := range phases {
		if p == c {
			n++
		}
	}
	return n
}
