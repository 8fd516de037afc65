package rt

import (
	"runtime/metrics"
	"sync"
	"unsafe"
)

// The store arena: every array a Store holds — declared arrays, a shift
// temporary given memory after all, a resumed temporary, a snapshot's
// copies — is a slab drawn here and, where its owner says so
// (Store.Release, Checkpoint.Release), handed back for the next run. A
// server answering the same few programs over and over stops allocating,
// zeroing and garbage-collecting a store per request; a caller that
// never releases (f90yrun, the f90y API, the oracle) only ever misses,
// and a miss is newSlab.
//
// A miss of hugePage bytes or more is still a Go allocation the
// collector owns, but one hugePage longer, re-sliced to start on a
// huge-page boundary and, where the platform can (arena_linux.go),
// advised onto transparent huge pages before anything touches it: a
// fresh process then faults its store in 2 MB at a time, not 4 KB. Only
// the whole huge pages inside the slab are advised; the partial tail
// stays on small pages, so the slab's resident size cannot grow.
//
// Slabs are keyed by exact length, not by program: cached programs that
// declare the same extents share one set. A slab is cleared every time
// it is lent — what the last tenant left in it never reaches the next,
// whatever the compiler could prove about assignment before use. There
// is no size to configure: a slab nothing reused for one whole
// garbage-collection cycle is dropped at the next Release, so the arena
// holds what recent runs keep drawing and memory pressure empties the
// rest.

// arenaMin is the smallest slab, in elements, the arena handles: below
// it the bookkeeping costs more than make and clear.
const arenaMin = 1 << 10

// hugePage is the size of a transparent huge page, in bytes: a slab of
// at least this many is made huge-page aligned.
const hugePage = 2 << 20

// ArenaStats counts the arena's traffic since the process started.
type ArenaStats struct {
	Gets      int64 `json:"gets"`       // slabs of arenaMin elements and up asked for
	Reuses    int64 `json:"reuses"`     // of those, served from a returned slab
	Puts      int64 `json:"puts"`       // slabs handed back
	HeldBytes int64 `json:"held_bytes"` // pinned by the slabs idle in the arena now
	Huge      int64 `json:"huge"`       // slabs made and advised onto huge pages
}

var arena struct {
	mu sync.Mutex
	// Idle slabs by length: those returned since the last collection
	// cycle Release saw, and those returned during the cycle before it.
	free, old map[int][][]float64
	gc        uint64
	st        ArenaStats
}

// ReadArenaStats snapshots the counters.
func ReadArenaStats() ArenaStats {
	arena.mu.Lock()
	defer arena.mu.Unlock()
	return arena.st
}

// getSlab returns n zeroed elements, whether the arena held them and,
// when it did not, whether the new slab was advised onto huge pages.
func getSlab(n int) (s []float64, reused, huge bool) {
	if n < arenaMin {
		return make([]float64, n), false, false
	}
	arena.mu.Lock()
	arena.st.Gets++
	for _, gen := range [2]map[int][][]float64{arena.free, arena.old} {
		if l := gen[n]; len(l) > 0 {
			s, l[len(l)-1] = l[len(l)-1], nil
			gen[n] = l[:len(l)-1]
			arena.st.Reuses++
			arena.st.HeldBytes -= slabBytes(n)
			break
		}
	}
	arena.mu.Unlock()
	if s == nil {
		s, huge = newSlab(n)
		return s, false, huge
	}
	clear(s)
	return s, true, false
}

// newSlab makes n zeroed elements: exactly make below hugePage bytes,
// and from there up a slab starting on a huge-page boundary, advised
// where the platform can (adviseHuge), with len == cap == n. huge
// reports that the advice was taken.
func newSlab(n int) (s []float64, huge bool) {
	if 8*n < hugePage {
		return make([]float64, n), false
	}
	buf := make([]float64, n+hugePage/8)
	off := int((-uintptr(unsafe.Pointer(&buf[0])) & (hugePage - 1)) / 8)
	s = buf[off : off+n : off+n]
	if huge = adviseHuge(s); huge {
		arena.mu.Lock()
		arena.st.Huge++
		arena.mu.Unlock()
	}
	return s, huge
}

// slabBytes is what a slab of n elements pins: its elements plus, from
// hugePage bytes up, the alignment pad around them.
func slabBytes(n int) int64 {
	if 8*n < hugePage {
		return int64(8 * n)
	}
	return int64(8*n + hugePage)
}

// putSlab hands s back; the caller must hold no other reference to it.
func putSlab(s []float64) {
	if len(s) < arenaMin {
		return
	}
	arena.mu.Lock()
	if arena.free == nil {
		arena.free = map[int][][]float64{}
	}
	arena.free[len(s)] = append(arena.free[len(s)], s)
	arena.st.Puts++
	arena.st.HeldBytes += slabBytes(len(s))
	arena.mu.Unlock()
}

// ageArena drops the slabs that sat idle through a whole collection
// cycle. Once per Release, never per slab.
func ageArena() {
	cycles := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(cycles)
	arena.mu.Lock()
	if gc := cycles[0].Value.Uint64(); gc != arena.gc {
		for n, l := range arena.old {
			arena.st.HeldBytes -= slabBytes(n) * int64(len(l))
		}
		arena.old, arena.free, arena.gc = arena.free, nil, gc
	}
	arena.mu.Unlock()
}
