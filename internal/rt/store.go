// Package rt implements the CM runtime system substrate (§2.2, §5.2): CM
// array storage with blockwise geometry, the communication library the
// front end calls for grid shifts, general routing, and reductions, and a
// calibrated communication cost model. Under the slicewise model
// "interprocessor communication ... is in general no faster than in the
// previous programming model": communication is charged per element moved,
// with microcoded grid shifts far cheaper than the general router.
package rt

import (
	"fmt"
	"math"

	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/shape"
)

// Array is one CM array: flat column-major float64 storage (the Weitek
// datapath is 64-bit; integers and logicals travel in f64 lanes exactly).
type Array struct {
	Kind nir.ScalarKind
	Ext  []int
	Lo   []int
	Data []float64
	// Dist is the array's data distribution from !HPF$ directives; the
	// zero value is the default blockwise layout. It never changes
	// element storage (always flat column-major) — only the modeled
	// communication geometry.
	Dist shape.Distribution
	// ShiftView marks a compiler temporary the compiler proved is only
	// ever a whole-array CSHIFT read by PEAC routines
	// (lower.Symbol.ShiftView): it starts without memory, a healthy
	// shift into it records a view instead of copying (view.go), and
	// once its last reader has run its content is not program state.
	ShiftView bool
	// gen is the write generation: Wrote bumps it, a view remembers its
	// source's and is stale once they differ.
	gen uint64
	// view, while Data is nil, is what the array reads as.
	view *view
}

// NewArray allocates a zeroed CM array for a shape.
func NewArray(kind nir.ScalarKind, s shape.Shape) *Array {
	a := &Array{Kind: kind, Ext: shape.Extents(s), Lo: shape.Lowers(s)}
	a.Data = make([]float64, a.Size())
	return a
}

// Size is the declared element count, whether or not the array
// currently owns memory (see ShiftView).
func (a *Array) Size() int {
	if a.Data != nil {
		return len(a.Data)
	}
	n := 1
	for _, e := range a.Ext {
		n *= e
	}
	return n
}

// Rank is the dimension count.
func (a *Array) Rank() int { return len(a.Ext) }

// Offset maps declared-space indexes to the storage offset.
func (a *Array) Offset(idx []int) (int, error) {
	off, stride := 0, 1
	for d := range a.Ext {
		i := idx[d] - a.Lo[d]
		if i < 0 || i >= a.Ext[d] {
			return 0, fmt.Errorf("rt: subscript %d out of bounds in dimension %d of extent %d", idx[d], d+1, a.Ext[d])
		}
		off += i * stride
		stride *= a.Ext[d]
	}
	return off, nil
}

// Coord returns the declared-space coordinate along dim (1-based) of the
// element at storage offset off.
func (a *Array) Coord(off, dim int) int {
	stride := 1
	for d := 0; d < dim-1; d++ {
		stride *= a.Ext[d]
	}
	return a.Lo[dim-1] + (off/stride)%a.Ext[dim-1]
}

// StoreVal writes v with the array's kind semantics (integers truncate).
func (a *Array) StoreVal(off int, v float64) {
	if a.Kind == nir.Integer32 {
		v = math.Trunc(v)
	}
	a.Data[off] = v
}

// StoreLanes writes len(src) consecutive values starting at off with the
// array's kind semantics — the vectorized form of StoreVal, shared by the
// executors so the per-kind conversion cannot drift between them.
func (a *Array) StoreLanes(off int, src []float64) {
	dst := a.Data[off : off+len(src)]
	if a.Kind == nir.Integer32 {
		for i, v := range src {
			dst[i] = math.Trunc(v)
		}
		return
	}
	copy(dst, src)
}

// StoreLanesMasked is StoreLanes under a mask: lane i is written only
// when mask[i] is nonzero.
func (a *Array) StoreLanesMasked(off int, src, mask []float64) {
	dst := a.Data[off : off+len(src)]
	mask = mask[:len(src)]
	if a.Kind == nir.Integer32 {
		for i, v := range src {
			if mask[i] != 0 {
				dst[i] = math.Trunc(v)
			}
		}
		return
	}
	for i, v := range src {
		if mask[i] != 0 {
			dst[i] = v
		}
	}
}

// Store holds all front-end scalars and CM arrays of a running program.
type Store struct {
	Arrays  map[string]*Array
	Scalars map[string]float64
	Kinds   map[string]nir.ScalarKind
	// Materialized counts, by reason, the times a shift temporary had
	// to be given memory after all (Store.Materialize).
	Materialized map[string]int
	// ArenaGets and ArenaReuses count the slabs of arenaMin elements and
	// up this store asked the arena for, and those it was lent used.
	ArenaGets, ArenaReuses int
}

// NewStore allocates storage for every non-PARAMETER symbol, each array
// a zeroed slab from the arena (arena.go); a shift temporary marked as a
// view gets its shape and no memory.
func NewStore(syms *lower.SymTab) *Store {
	st := &Store{Arrays: map[string]*Array{}, Scalars: map[string]float64{}, Kinds: map[string]nir.ScalarKind{}}
	for _, sym := range syms.All() {
		if sym.Param {
			continue
		}
		st.Kinds[sym.Name] = sym.Kind
		if sym.Shape == nil {
			st.Scalars[sym.Name] = 0
			continue
		}
		a := &Array{Kind: sym.Kind, Ext: shape.Extents(sym.Shape), Lo: shape.Lowers(sym.Shape), Dist: sym.Dist, ShiftView: sym.ShiftView}
		if !a.ShiftView {
			a.Data = st.slab(a.Size())
		}
		st.Arrays[sym.Name] = a
	}
	return st
}

// slab draws n zeroed elements for the store from the arena.
func (st *Store) slab(n int) []float64 {
	s, reused := getSlab(n)
	if n >= arenaMin {
		st.ArenaGets++
	}
	if reused {
		st.ArenaReuses++
	}
	return s
}

// Release hands every slab back to the arena and leaves the store
// without arrays, each Array.Data nil: a later reference finds no such
// array (ErrUndefined), never what the slab's next borrower wrote. Only
// the store's last user may call it — a server once the response is
// rendered; a second call is a no-op.
func (st *Store) Release() {
	ageArena()
	for _, a := range st.Arrays {
		putSlab(a.Data)
		a.Data, a.view = nil, nil
	}
	st.Arrays = nil
}

// SetScalar writes a scalar with kind semantics.
func (st *Store) SetScalar(name string, v float64) {
	if st.Kinds[name] == nir.Integer32 {
		v = math.Trunc(v)
	}
	st.Scalars[name] = v
}

// FormatVal renders a value the way the reference interpreter prints it,
// so compiled and interpreted PRINT output can be compared byte-for-byte.
func FormatVal(kind nir.ScalarKind, v float64) string {
	switch kind {
	case nir.Integer32:
		return fmt.Sprintf("%d", int64(v))
	case nir.Logical32:
		if v != 0 {
			return "T"
		}
		return "F"
	default:
		return fmt.Sprintf("%g", v)
	}
}
