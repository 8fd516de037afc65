package rt

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/shape"
)

// arenaTestStore declares a, b and the marked shift temporary t0 over a
// 40x30 grid — 1,200 elements, so every array is an arena slab.
func arenaTestStore() *Store {
	sh := shape.Of(40, 30)
	syms := lower.NewSymTab()
	for _, name := range []string{"a", "b", "t0"} {
		syms.Define(&lower.Symbol{Name: name, Kind: nir.Float64, Shape: sh, Temp: name == "t0", ShiftView: name == "t0",
			Type: nir.DField{Shape: sh, Elem: nir.Scalar{Kind: nir.Float64}}})
	}
	return NewStore(syms)
}

// lent is how many slabs the arena has out: asked for and not handed back.
func lent() int64 {
	st := ReadArenaStats()
	return st.Gets - st.Puts
}

// hugeN is a slab of two whole huge pages and a partial third.
const hugeN = 2*hugePage/8 + 3*arenaMin

// TestArenaSlabIsClearedOnReuse: a returned slab, small or huge, comes
// back for the same length only, zeroed whatever it held; arrays under
// arenaMin never pass through the arena.
func TestArenaSlabIsClearedOnReuse(t *testing.T) {
	for _, n := range []int{3 * arenaMin, hugeN} {
		s, _, _ := getSlab(n)
		for i := range s {
			s[i] = math.NaN()
		}
		s[7] = -7.25
		before := ReadArenaStats()
		putSlab(s)
		if other, reused, _ := getSlab(n + 1); reused || len(other) != n+1 {
			t.Fatalf("n=%d: a slab of another length: reused %v, len %d", n, reused, len(other))
		}
		again, reused, _ := getSlab(n)
		if !reused || &again[0] != &s[0] {
			t.Fatalf("n=%d: a returned slab was not lent again for its own length", n)
		}
		for i, v := range again {
			if math.Float64bits(v) != 0 {
				t.Fatalf("n=%d: reused slab[%d] = %v, want +0", n, i, v)
			}
		}
		after := ReadArenaStats()
		after.Huge = before.Huge // the slab of another length may be advised
		if after.Gets-before.Gets != 2 || after.Reuses-before.Reuses != 1 || after.Puts-before.Puts != 1 || after.HeldBytes != before.HeldBytes {
			t.Errorf("n=%d: counters moved %+v -> %+v, want 2 gets, 1 reuse, 1 put, held unchanged", n, before, after)
		}
	}

	before := ReadArenaStats()
	small, reused, _ := getSlab(arenaMin - 1)
	putSlab(small)
	if again, _, _ := getSlab(arenaMin - 1); reused || &again[0] == &small[0] || ReadArenaStats() != before {
		t.Error("an array under arenaMin went through the arena")
	}
}

// TestNewSlabShape: a miss of hugePage bytes or more starts on a huge-page
// boundary, holds exactly its n zeroed elements (len == cap == n), pins
// its pad while idle in the arena and comes back for its length; a
// smaller one is exactly make.
func TestNewSlabShape(t *testing.T) {
	for _, n := range []int{hugePage / 8, hugeN} {
		s, reused, _ := getSlab(n)
		if reused {
			t.Fatalf("n=%d: a slab nothing returned was reused", n)
		}
		if addr := uintptr(unsafe.Pointer(&s[0])); addr%hugePage != 0 || len(s) != n || cap(s) != n {
			t.Fatalf("n=%d: slab at %#x, len %d, cap %d; want a huge-page boundary and len == cap == n", n, addr, len(s), cap(s))
		}
		for i, v := range s {
			if math.Float64bits(v) != 0 {
				t.Fatalf("n=%d: new slab[%d] = %v, want +0", n, i, v)
			}
		}
		held := ReadArenaStats().HeldBytes
		putSlab(s)
		if got := ReadArenaStats().HeldBytes - held; got != int64(8*n+hugePage) {
			t.Errorf("n=%d: an idle slab adds %d held bytes, want its elements and pad, %d", n, got, 8*n+hugePage)
		}
		if again, reused, huge := getSlab(n); !reused || huge || &again[0] != &s[0] {
			t.Errorf("n=%d: the returned slab was not lent again (reused %v, huge %v)", n, reused, huge)
		}
	}
	for _, n := range []int{arenaMin, hugePage/8 - 1} {
		if s, huge := newSlab(n); huge || len(s) != n || cap(s) != n || slabBytes(n) != int64(8*n) {
			t.Errorf("n=%d: len %d, cap %d, huge %v, pins %d bytes; want exactly make", n, len(s), cap(s), huge, slabBytes(n))
		}
	}
}

// TestHugeSlabIsBackedByHugePages: on Linux with transparent huge pages
// not "never", a large slab, once touched, shows AnonHugePages in its
// mapping in /proc/self/smaps. The slab is made in a child process, as
// its first large allocation: heap pages an earlier test touched and
// freed are resident already, and the advice cannot regroup them.
func TestHugeSlabIsBackedByHugePages(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skipf("huge-page advice is Linux only; this is %s", runtime.GOOS)
	}
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || bytes.Contains(mode, []byte("[never]")) {
		t.Skipf("transparent huge pages are off on this host (%q, %v)", bytes.TrimSpace(mode), err)
	}
	const child = "F90Y_TEST_HUGE_SLAB_CHILD"
	if os.Getenv(child) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestHugeSlabIsBackedByHugePages$", "-test.v")
		cmd.Env = append(os.Environ(), child+"=1")
		if out, err := cmd.CombinedOutput(); err != nil || !bytes.Contains(out, []byte("--- PASS")) {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}
	s, huge := newSlab(hugeN)
	if !huge {
		t.Fatalf("THP mode %q, but the kernel refused MADV_HUGEPAGE", bytes.TrimSpace(mode))
	}
	for i := range s {
		s[i] = 1
	}
	kb := anonHugeKB(t, uintptr(unsafe.Pointer(&s[0])))
	runtime.KeepAlive(s)
	if kb == 0 {
		t.Errorf("THP mode %q: the touched slab's mapping has no AnonHugePages", bytes.TrimSpace(mode))
	}
}

// anonHugeKB reads the AnonHugePages of the mapping holding addr.
func anonHugeKB(t *testing.T, addr uintptr) int {
	smaps, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Skipf("no /proc/self/smaps: %v", err)
	}
	in := false
	for _, line := range strings.Split(string(smaps), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) < 2:
		case !strings.HasSuffix(f[0], ":"): // a mapping's header: lo-hi perms ...
			var lo, hi uintptr
			fmt.Sscanf(f[0], "%x-%x", &lo, &hi)
			in = lo <= addr && addr < hi
		case in && f[0] == "AnonHugePages:":
			kb, _ := strconv.Atoi(f[1])
			return kb
		}
	}
	t.Fatalf("no mapping in /proc/self/smaps holds %#x", addr)
	return 0
}

// TestStoreReleaseIsIdempotentAndLoud: Release hands each slab back
// once, a second Release hands back nothing, and whatever then reads the
// store gets an error — never the slab's next borrower's numbers.
func TestStoreReleaseIsIdempotentAndLoud(t *testing.T) {
	st := arenaTestStore()
	a := st.Arrays["a"]
	a.Data[0] = 42
	before := ReadArenaStats()
	st.Release()
	st.Release()
	if after := ReadArenaStats(); after.Puts-before.Puts != 2 {
		t.Errorf("two Releases of a store with two slabs made %d puts", after.Puts-before.Puts)
	}
	if a.Data != nil || len(st.Arrays) != 0 {
		t.Fatalf("released store still has arrays (%d) or data (%v)", len(st.Arrays), a.Data != nil)
	}
	ctx := &EvalCtx{Store: st}
	if _, _, err := Eval(nir.AVar{Name: "a", Field: nir.Subscript{Subs: []nir.Value{nir.IntConst(1), nir.IntConst(1)}}}, ctx); !errors.Is(err, ErrUndefined) {
		t.Errorf("element read of a released store: %v, want ErrUndefined", err)
	}
	if err := newComm(st).ExecMove(viewShiftMove("cm_cshift", "b", "a", 1, 1)); !errors.Is(err, ErrUndefined) {
		t.Errorf("shift over a released store: %v, want ErrUndefined", err)
	}
}

// TestArenaBalance: every way a store comes by a slab — allocation, a
// view materialized across two rotated axes (one intermediate), a view
// overwritten by a copying shift, a materialized temporary turned back
// into a view, a snapshot's copies, a resumed temporary — hands it back
// exactly once.
func TestArenaBalance(t *testing.T) {
	out := lent()
	st := arenaTestStore()
	c := newComm(st)
	shift := func(fn, tgt, src string, by, dim int64) {
		t.Helper()
		m := viewShiftMove(fn, tgt, src, by, dim)
		m.Over = shape.Of(40, 30)
		mustMove(t, c, m)
	}
	shift("cm_cshift", "t0", "a", 1, 1)
	shift("cm_cshift", "t0", "t0", 1, 2) // a view rotated on both axes
	t0 := st.Arrays["t0"]
	if err := st.Materialize(t0, MaterializedHostRead); err != nil || t0.Data == nil {
		t.Fatalf("materialize: %v", err)
	}
	shift("cm_cshift", "t0", "a", 2, 1) // a view again: its memory goes back
	if t0.Data != nil {
		t.Fatal("a healthy shift into a materialized temporary kept its memory")
	}
	shift("cm_eoshift", "t0", "a", 1, 1) // a copying shift gives it memory once more
	ck := st.Checkpoint()
	resumed := arenaTestStore()
	if err := ck.ApplyStore(resumed); err != nil || resumed.Arrays["t0"].Data == nil {
		t.Fatalf("resume: %v", err)
	}
	if st.ArenaGets != 2+2+1+3 || resumed.ArenaGets != 2+1 {
		t.Errorf("the stores asked for %d and %d slabs, want 8 and 3", st.ArenaGets, resumed.ArenaGets)
	}
	ck.Release()
	st.Release()
	resumed.Release()
	if got := lent(); got != out {
		t.Errorf("%d slabs still lent after every Release", got-out)
	}
}

// TestArenaAgesOut: a slab nothing draws for a whole collection cycle is
// dropped at the next Release; no size bounds the arena, the collector
// does.
func TestArenaAgesOut(t *testing.T) {
	const n = 5 * arenaMin
	s, _, _ := getSlab(n)
	for i := 0; i < 2; i++ { // age out what earlier tests handed back
		runtime.GC()
		(&Store{}).Release()
	}
	held := ReadArenaStats().HeldBytes
	putSlab(s)
	for i := 0; i < 2; i++ {
		if got := ReadArenaStats().HeldBytes; got != held+8*n {
			t.Fatalf("after %d cycles the arena holds %d bytes, want %d", i, got, held+8*n)
		}
		runtime.GC()
		(&Store{}).Release()
	}
	if _, reused, _ := getSlab(n); reused || ReadArenaStats().HeldBytes > held {
		t.Errorf("a slab idle for two collection cycles is still held (%d bytes)", ReadArenaStats().HeldBytes)
	}
}
