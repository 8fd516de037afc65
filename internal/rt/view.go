package rt

import (
	"errors"
	"fmt"
)

// Shift views. A temporary the compiler marked (Array.ShiftView,
// decided in internal/partition) owns no memory while a healthy
// whole-array CSHIFT is all that ever wrote it: the shift charges its
// modeled cycles exactly as a copying one and records here which array
// the temporary reads as, rotated by how much. A PEAC routine binds the
// record as a rotated stream of the source (cm2.ExecRoutineOpts);
// anything else that touches the temporary — another runtime intrinsic,
// a general move, a host element access, a shift under the fault
// injector — first gives it memory (Store.Materialize).
//
// The compiler guarantees the source is not written between the shift
// and the temporary's last read. The write generations hold it to that:
// every writer calls Wrote, a view remembers its source's generation,
// and reading a view whose source has moved on is ErrStaleView — an
// analysis bug fails loudly, it never yields a wrong float.

// ErrStaleView reports a read of a shift view whose source array was
// written after the shift.
var ErrStaleView = errors.New("shift view is stale: its source was written after the shift")

// view is what an array without memory reads as: element i of it, per
// dimension d, is element (i + rot[d]) mod Ext[d] of src.
type view struct {
	of  string // src's name in the store, for the checkpoint header
	src *Array // owns memory and has this array's extents
	rot []int  // per dimension, in [0, Ext[d])
	gen uint64 // src.gen when the view was taken
}

// Wrote records that the array's content changed: every view of it is
// stale from here on. Called once per writing operation (a comm commit,
// a dispatch that stores to it, a host element assign), never per
// element.
func (a *Array) Wrote() { a.gen++ }

// View resolves an array for a reader that can follow a rotation: the
// array that owns the content and the rotation per dimension (see
// view). An array with memory is itself, unrotated; one that was never
// written reads as zeros, like every other, and is given them here.
func (a *Array) View() (src *Array, rot []int, err error) {
	v := a.view
	if v == nil {
		if a.Data == nil {
			a.Data, _, _ = getSlab(a.Size())
		}
		return a, nil, nil
	}
	if v.src.gen != v.gen {
		return nil, nil, fmt.Errorf("view of %q: %w", v.of, ErrStaleView)
	}
	return v.src, v.rot, nil
}

// viewOf is the view "src (named of in the store) shifted by shift
// along dimension d". A src that is itself a view composes by adding
// the rotations, so a view always points at memory.
func viewOf(of string, src *Array, d, shift int) (*view, error) {
	root, rot, err := src.View()
	if err != nil {
		return nil, err
	}
	if root != src {
		of = src.view.of
	}
	v := &view{of: of, src: root, rot: make([]int, len(src.Ext)), gen: root.gen}
	copy(v.rot, rot)
	n := src.Ext[d]
	v.rot[d] = ((v.rot[d]+shift)%n + n) % n
	return v, nil
}

// setView makes the array read as v and releases its memory.
func (a *Array) setView(v *view) {
	putSlab(a.Data)
	a.view, a.Data = v, nil
	a.Wrote()
}

// materialize gives a viewing array its own memory holding the viewed
// content, copied one rotated dimension at a time by the loops a
// copying shift runs.
func (st *Store) materialize(a *Array) error {
	src, rot, err := a.View()
	if err != nil || src == a {
		return err
	}
	data, own := src.Data, false
	for d, r := range rot {
		if r != 0 {
			next := st.slab(len(data))
			shiftInto(next, data, a.Ext, d, r, true, 0, 0, len(next))
			if own {
				putSlab(data)
			}
			data, own = next, true
		}
	}
	if !own {
		data = st.slab(len(data))
		copy(data, src.Data)
	}
	a.Data, a.view = data, nil
	return nil
}

// Why a shift temporary was given memory after all; each is a counter
// under rt/shift-view/materialized/.
const (
	MaterializedArmed    = "armed"     // a shift into it ran under the fault injector
	MaterializedCommRead = "comm-read" // a runtime intrinsic or general move touched it
	MaterializedHostRead = "host-read" // a host element access or PRINT touched it
)

// Materialize makes sure a owns memory, holding what it read as, before
// something that cannot follow a view touches it; it counts why when
// the array did not.
func (st *Store) Materialize(a *Array, why string) error {
	if a.Data != nil {
		return nil
	}
	st.noteMaterialized(why)
	return st.materialize(a)
}

// overwrite gives a memory for a writer about to replace every element:
// whatever a read as is dropped, not copied.
func (st *Store) overwrite(a *Array, why string) {
	st.noteMaterialized(why)
	a.view, a.Data = nil, st.slab(a.Size())
}

func (st *Store) noteMaterialized(why string) {
	if st.Materialized == nil {
		st.Materialized = map[string]int{}
	}
	st.Materialized[why]++
}
