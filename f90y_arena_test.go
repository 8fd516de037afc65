package f90y_test

// The store arena end to end: a run's store is slabs another run may
// have held, and nothing of that other run — not a NaN, not a pattern —
// may reach the program.

import (
	"reflect"
	"testing"

	"f90y/internal/cm2"
	"f90y/internal/faults"
	"f90y/internal/rt"
)

// Two programs over the same three 37x41 arrays: the reader reads c
// before anything assigns it; the poisoner leaves NaNs, infinities and
// a non-zero pattern in every array.
var (
	arenaReader = viewProg(`real a(37,41), b(37,41), c(37,41)`,
		`forall (i=1:37, j=1:41) a(i,j) = i - 2*j
b = a * 0.5 + c
print *, sum(b), sum(c), b(1,1), c(37,41)`)
	arenaPoisoner = viewProg(`real a(37,41), b(37,41), c(37,41)`,
		`a = 0.0
a = a / a
b = -1.0 / (a * 0.0 + 0.0)
forall (i=1:37, j=1:41) c(i,j) = 1000*i + j
print *, c(37,41)`)
)

// TestReusedStoreIsCleared: the reader on slabs the poisoner released is
// bit-identical, store and output, to the reader on memory nothing had
// touched — a reused slab is cleared whether or not the program assigns
// it first.
func TestReusedStoreIsCleared(t *testing.T) {
	fresh, _ := viewRun(t, arenaReader, nil)
	if fresh.Store.ArenaGets != 3 || fresh.Store.ArenaReuses != 0 {
		t.Fatalf("the first run of these extents drew %d slabs, %d reused; want 3 fresh ones",
			fresh.Store.ArenaGets, fresh.Store.ArenaReuses)
	}

	poisoned, _ := viewRun(t, arenaPoisoner, nil)
	for name, a := range poisoned.Store.Arrays {
		if a.Data[0] == 0 || a.Data[len(a.Data)-1] == 0 {
			t.Fatalf("the poisoner left zeros in %s; the check is vacuous", name)
		}
	}
	poisoned.Store.Release()

	reused, counters := viewRun(t, arenaReader, nil)
	if reused.Store.ArenaReuses != 3 || counters["rt/arena/get"] != 3 || counters["rt/arena/reuse"] != 3 {
		t.Fatalf("the reader after a Release reused %d of 3 slabs (recorder: get %v, reuse %v)",
			reused.Store.ArenaReuses, counters["rt/arena/get"], counters["rt/arena/reuse"])
	}
	sameViewRun(t, "on slabs the poisoner released", fresh, reused)
}

// TestRunsHandEverySlabBack: a run that copies every shift (an attached
// injector), snapshots at every boundary and is then resumed from a
// snapshot that holds a materialized temporary returns, once stores and
// snapshots are released, exactly the slabs it drew.
func TestRunsHandEverySlabBack(t *testing.T) {
	src := viewProg(`real a(40,30), b(40,30)
integer it`,
		`forall (i=1:40, j=1:30) a(i,j) = i + 10*j
b = 0.0
do it = 1, 4
  b = b + cshift(a, 1, 1) - cshift(a, -1, 2)
end do
print *, sum(b)`)
	lent := func() int64 { st := rt.ReadArenaStats(); return st.Gets - st.Puts }
	out, gets := lent(), rt.ReadArenaStats().Gets

	var cks []*rt.Checkpoint
	armed := func() cm2.Control {
		return cm2.Control{Faults: faults.New(&faults.Plan{Seed: 7}, nil),
			Checkpoint: func(snap func() *rt.Checkpoint) error { cks = append(cks, snap()); return nil }}
	}
	ctl := armed()
	whole, _ := viewRun(t, src, &ctl)
	if whole.Store.Materialized[rt.MaterializedArmed] == 0 {
		t.Fatal("no shift temporary was materialized; the check is vacuous")
	}
	var mid *rt.Checkpoint
	for _, ck := range cks {
		for name, ca := range ck.Arrays {
			if whole.Store.Arrays[name].ShiftView && ca.Data != nil && ck.InLoop {
				mid = ck
			}
		}
	}
	if mid == nil {
		t.Fatal("no mid-loop snapshot holds a materialized temporary")
	}
	ctl = armed()
	ctl.Resume = mid
	resumed, _ := viewRun(t, src, &ctl)
	if !reflect.DeepEqual(resumed.Output, whole.Output) {
		t.Errorf("resumed output %q, uninterrupted %q", resumed.Output, whole.Output)
	}

	whole.Store.Release()
	resumed.Store.Release()
	resumed.Store.Release()
	for _, ck := range cks {
		ck.Release()
	}
	if drew := rt.ReadArenaStats().Gets - gets; drew < 20 || lent() != out {
		t.Errorf("the runs drew %d slabs and %d are still lent; want every one handed back", drew, lent()-out)
	}
}
