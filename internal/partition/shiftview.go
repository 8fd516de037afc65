package partition

// Shift views: which compiler temporaries may hold no memory.
//
// Lowering gives every communication intrinsic a temporary (Fig. 12's
// tmp0, tmp1) and §4.2's clustering hoists the shifts in front of the
// blocked computation that reads them. On the CM/2 that temporary is
// NEWS traffic, and the runtime keeps charging it cycle for cycle; on
// the host that simulates it, copying the array only so the next PEAC
// routine can read it back is pure overhead. A temporary marked here
// (lower.Symbol.ShiftView) is never copied: the runtime records "the
// source, rotated" on it and the executor reads the source through that
// rotation (DESIGN.md "Shift views").
//
// The decision is made once, on the finished host program, from
// positions alone. T is marked iff
//
//   - every op naming T sits directly in one op list, and the first of
//     them is a comm that is exactly T <- cm_cshift(S, ...) over the
//     whole array (cm_eoshift never: its boundary fill is not a window);
//   - every later reference is an array parameter of a routine that
//     never stores through it, or the source of another marked shift
//     (chains compose by adding rotations);
//   - between the definition and the last use nothing — a comm, a
//     routine, a host element assign, however deeply nested in an If,
//     While or DO sitting in that stretch of the list — writes an array
//     T's content is read from: S, and S's own source while S is itself
//     such a temporary. The consumers count: a routine that reads T and
//     stores S would read elements its own chunk workers already
//     overwrote.
//
// Reads and writes of comms and host ops are nir's own read and write
// sets (nir.EachRead, nir.EachWrite); a routine's come from its
// parameter list and stores. Every
// reference is indexed once with its preorder position, so a stretch
// of one list, nested ops included, is a position interval and the
// pass is O(ops + params).

import (
	"sort"

	"f90y/internal/fe"
	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/obs"
	"f90y/internal/peac"
	"f90y/internal/shape"
)

// Why a shift temporary keeps its memory, in the order they are tested.
// Each is a counter under partition/shift-view/refused/.
const (
	refusedEoshift        = "eoshift"
	refusedNotWhole       = "not-whole-array"
	refusedOtherBlock     = "other-block"
	refusedHostRead       = "host-read"
	refusedCommRead       = "non-shift-comm-read"
	refusedRoutineStores  = "routine-stores-temp"
	refusedConsumerStores = "consumer-stores-source"
	refusedSourceWritten  = "source-written"
)

type viewRefKind uint8

const (
	refRoutine  viewRefKind = iota // array parameter of a CallNode
	refShiftDef                    // target of a shift into a temporary
	refShiftSrc                    // source array of such a shift
	refComm                        // named by any other comm
	refHost                        // named by a host op: assign, print, condition
)

// viewRef is one op naming an array.
type viewRef struct {
	pos   int32 // the op's preorder position in the host program
	list  int32 // the op list the op sits in directly
	shift int32 // refShiftDef, refShiftSrc: index into viewIndex.shifts
	kind  viewRefKind
	write bool // the op writes the array
}

// shiftDef is one comm guarded move T <- cm_cshift/cm_eoshift(S, ...)
// whose target is a compiler temporary.
type shiftDef struct {
	tgt       *viewArray
	src       string
	pos, list int32
	eoshift   bool
	// exact: the comm is this one unmasked move, over the whole of two
	// distinct arrays of congruent shapes.
	exact bool
}

// viewArray is what the pass knows about one array: its references in
// position order — every one for a temporary, the writes alone for any
// other array, whose readers never matter — and, for a temporary a shift
// targets, the shift that defines it and the verdicts.
type viewArray struct {
	sym    *lower.Symbol
	refs   []viewRef
	def    int32  // index into viewIndex.shifts of the first shift into it
	local  string // localRefusal's reason; "" for none
	marked bool
}

type viewIndex struct {
	syms   *lower.SymTab
	arrays map[string]*viewArray // nil for a name that is no array
	shifts []shiftDef            // in position order
	pos    int32
	lists  int32
}

// markShiftViews decides lower.Symbol.ShiftView for every temporary a
// shift targets and returns how many it marked; each decision is a
// counter on rec.
func markShiftViews(ops []fe.Op, syms *lower.SymTab, rec obs.Recorder) int {
	ix := &viewIndex{syms: syms, arrays: make(map[string]*viewArray, len(ops))}
	ix.walk(ops)

	// The first shift into each temporary defines it; any other is one
	// more comm naming it.
	var temps []*viewArray
	for i := range ix.shifts {
		if t := ix.shifts[i].tgt; t.def < 0 {
			t.def = int32(i)
			temps = append(temps, t)
		}
	}
	for _, t := range temps {
		t.local = ix.localRefusal(t)
	}
	// Consumers are defined after their source, so deciding in reverse
	// order has every consuming shift's verdict ready.
	n := 0
	for i := len(temps) - 1; i >= 0; i-- {
		t := temps[i]
		reason := t.local
		if reason == "" {
			for _, r := range t.refs {
				if r.kind == refShiftSrc && !ix.shifts[r.shift].tgt.marked {
					reason = refusedCommRead
				}
			}
		}
		if reason == "" {
			reason = ix.windowRefusal(t)
		}
		if t.marked = reason == ""; t.marked {
			n++
		} else {
			obs.Add(rec, "partition/shift-view/refused/"+reason, 1)
		}
		t.sym.ShiftView = t.marked
	}
	obs.Add(rec, "partition/shift-view/marked", float64(n))
	return n
}

// walk indexes one op list and, in preorder, the lists nested in it.
func (ix *viewIndex) walk(ops []fe.Op) {
	list := ix.lists
	ix.lists++
	for _, op := range ops {
		pos := ix.pos
		ix.pos++
		switch op := op.(type) {
		case fe.CallNode:
			stored := op.Routine.StoredPtrs()
			for _, p := range op.Routine.Params {
				if p.Kind == peac.ArrayParam {
					ix.add(p.Name, viewRef{pos: pos, list: list, kind: refRoutine, write: stored[p.Reg]})
				}
			}
		case fe.Comm:
			ix.comm(op.Move, pos, list)
		case fe.Assign:
			ix.touched(nir.Move{Moves: []nir.GuardedMove{{Mask: op.Mask, Src: op.Src, Tgt: op.Tgt}}}, viewRef{pos: pos, list: list, kind: refHost})
		case fe.Print:
			ix.touched(nir.CallImp{Args: op.Args}, viewRef{pos: pos, list: list, kind: refHost})
		case fe.If:
			ix.touched(nir.IfThenElse{Cond: op.Cond}, viewRef{pos: pos, list: list, kind: refHost})
			ix.walk(op.Then)
			ix.walk(op.Else)
		case fe.While:
			ix.touched(nir.While{Cond: op.Cond}, viewRef{pos: pos, list: list, kind: refHost})
			ix.walk(op.Body)
		case fe.DoSerial:
			ix.walk(op.Body)
		}
	}
}

// array returns the record of the array called name, nil when the name
// is a scalar's or nobody's.
func (ix *viewIndex) array(name string) *viewArray {
	a, seen := ix.arrays[name]
	if !seen {
		if sym, ok := ix.syms.Lookup(name); ok && sym.Shape != nil {
			a = &viewArray{sym: sym, def: -1}
		}
		ix.arrays[name] = a
	}
	return a
}

func (ix *viewIndex) add(name string, r viewRef) {
	a := ix.array(name)
	if a == nil {
		return
	}
	if a.sym.Temp || r.write {
		if a.refs == nil {
			a.refs = make([]viewRef, 0, 4)
		}
		a.refs = append(a.refs, r)
	}
}

// touched indexes what action a reads and writes, by nir's own sets.
func (ix *viewIndex) touched(a nir.Imp, r viewRef) {
	nir.EachRead(a, func(name string) { ix.add(name, r) })
	r.write = true
	nir.EachWrite(a, func(name string) { ix.add(name, r) })
}

// comm indexes one communication. A shift into a temporary is a
// candidate definition; everything else a comm names is a plain comm
// reference.
func (ix *viewIndex) comm(m nir.Move, pos, list int32) {
	first := len(ix.shifts)
	for _, g := range m.Moves {
		fc, isCall := g.Src.(nir.FcnCall)
		tgt, isArr := g.Tgt.(nir.AVar)
		if !isCall || !isArr || (fc.Name != "cm_cshift" && fc.Name != "cm_eoshift") || len(fc.Args) == 0 {
			continue
		}
		t := ix.array(tgt.Name)
		if t == nil || !t.sym.Temp {
			continue
		}
		sh := shiftDef{tgt: t, pos: pos, list: list, eoshift: fc.Name == "cm_eoshift"}
		if src, ok := fc.Args[0].(nir.AVar); ok {
			sh.src = src.Name
			s := ix.array(src.Name)
			sh.exact = len(m.Moves) == 1 && nir.EqualValue(g.Mask, nir.True) && s != nil && s != t &&
				wholeArray(tgt) && wholeArray(src) &&
				(shape.Equal(t.sym.Shape, s.sym.Shape) || shape.Congruent(t.sym.Shape, s.sym.Shape))
		}
		ix.shifts = append(ix.shifts, sh)
	}
	if len(ix.shifts) == first+1 && len(m.Moves) == 1 {
		sh := ix.shifts[first]
		ix.add(sh.tgt.sym.Name, viewRef{pos: pos, list: list, kind: refShiftDef, write: true, shift: int32(first)})
		nir.EachRead(m, func(name string) {
			if name == sh.src {
				ix.add(name, viewRef{pos: pos, list: list, kind: refShiftSrc, shift: int32(first)})
			} else {
				ix.add(name, viewRef{pos: pos, list: list, kind: refComm})
			}
		})
		return
	}
	ix.touched(m, viewRef{pos: pos, list: list, kind: refComm})
}

func wholeArray(av nir.AVar) bool {
	_, ok := av.Field.(nir.Everywhere)
	return ok
}

// localRefusal tests everything about temporary t that does not depend
// on another temporary's verdict: the shape of its definition, where
// its references sit, and who they are.
func (ix *viewIndex) localRefusal(t *viewArray) string {
	d := ix.shifts[t.def]
	var inexact, otherBlock, host, comm, stores bool
	for _, r := range t.refs {
		if r.list != d.list || r.pos < d.pos {
			otherBlock = true
		}
		switch r.kind {
		case refHost:
			host = true
		case refComm:
			comm = true
		case refShiftDef:
			inexact = inexact || !ix.shifts[r.shift].exact
			comm = comm || r.shift != t.def // a second definition
		case refRoutine:
			stores = stores || r.write
		}
	}
	switch {
	case d.eoshift:
		return refusedEoshift
	case inexact || !d.exact:
		return refusedNotWhole
	case otherBlock:
		return refusedOtherBlock
	case host:
		return refusedHostRead
	case comm:
		return refusedCommRead
	case stores:
		return refusedRoutineStores
	}
	return ""
}

// windowRefusal looks for a write, between t's definition and its last
// use, to an array t's content would be read from: its source, and the
// source's source for as long as the chain may stay views (a source
// refused later only makes this conservative).
func (ix *viewIndex) windowRefusal(t *viewArray) string {
	from, to := ix.shifts[t.def].pos, t.refs[len(t.refs)-1].pos
	x := ix.array(ix.shifts[t.def].src)
	for hops := 0; hops <= len(ix.shifts); hops++ {
		refs := x.refs
		for _, w := range refs[sort.Search(len(refs), func(i int) bool { return refs[i].pos > from }):] {
			if w.pos > to {
				break
			}
			if !w.write {
				continue
			}
			for _, u := range t.refs {
				if u.pos == w.pos && w.kind == refRoutine {
					return refusedConsumerStores
				}
			}
			return refusedSourceWritten
		}
		if x.def < 0 || x.local != "" {
			break
		}
		x = ix.array(ix.shifts[x.def].src)
	}
	return ""
}
