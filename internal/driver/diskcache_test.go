package driver

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"f90y"
	"f90y/internal/faults"
)

func timeUnix(sec int64) time.Time { return time.Unix(sec, 0) }

const diskSrc = `      PROGRAM DCACHE
      REAL A(8), B(8)
      INTEGER I
      A = 2.0
      B = 3.0
      DO I = 1, 4
        A = A * B + A
      END DO
      PRINT *, SUM(A)
      END
`

// runThrough compiles and runs diskSrc through a fresh service,
// returning the result for identity comparison.
func runThrough(t *testing.T, svc *Service) (*Artifact, []string, float64) {
	t.Helper()
	res := svc.Run(context.Background(), Job{Name: "dc", File: "dc.f90", Source: diskSrc, Config: f90y.DefaultConfig()})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	r := res.Result
	return res.Artifact, r.Output, r.TotalCycles()
}

// populatedFields lists the paths of v's non-zero exported fields,
// following pointers into the structs they name.
func populatedFields(path string, v reflect.Value) []string {
	if v.IsZero() {
		return nil
	}
	out := []string{path}
	for v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return out
	}
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() {
			out = append(out, populatedFields(path+"."+f.Name, v.Field(i))...)
		}
	}
	return out
}

// TestDiskCacheRoundTrip: a second service with the same CacheDir
// serves the compile from disk — no pipeline run — and the restored
// program executes bit-identically to the freshly compiled one.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()

	cold := New(1)
	cold.CacheDir = dir
	fresh, outCold, cycCold := runThrough(t, cold)
	if st := cold.DiskStats(); st.Writes != 1 || st.Hits != 0 {
		t.Fatalf("cold service disk stats %+v, want 1 write, 0 hits", st)
	}

	warm := New(1)
	warm.CacheDir = dir
	art, outWarm, cycWarm := runThrough(t, warm)
	if st := warm.DiskStats(); st.Hits != 1 || st.Corrupt != 0 {
		t.Fatalf("warm service disk stats %+v, want 1 hit, 0 corrupt", st)
	}
	if !reflect.DeepEqual(outCold, outWarm) {
		t.Errorf("restored program output %q, compiled %q", outWarm, outCold)
	}
	if cycCold != cycWarm {
		t.Errorf("restored program cycles %v, compiled %v", cycWarm, cycCold)
	}
	// Both tiers hand out the same shape: same type, same fields set.
	// (A disk hit used to fabricate a Compilation with only Program.)
	if f, l := populatedFields("art", reflect.ValueOf(fresh)), populatedFields("art", reflect.ValueOf(art)); !reflect.DeepEqual(f, l) {
		t.Errorf("disk-loaded artifact populates %v, freshly compiled %v", l, f)
	}
	// The restored host program must be structurally complete.
	if got, want := art.Program.CountOps(), len(art.Program.Routines); len(got) == 0 || want == 0 {
		t.Errorf("restored program looks empty: ops %v, %d routines", got, want)
	}
	// Routine pointers are re-linked: every CallNode points into Routines.
	if len(art.Program.Routines) > 0 {
		seen := map[string]bool{}
		for _, r := range art.Program.Routines {
			seen[r.Name] = true
		}
		if !seen[art.Program.Routines[0].Name] {
			t.Error("routine table lost names")
		}
	}
}

// TestDiskCacheKeepsShiftViews: which temporaries are shift views is
// decided at compile time and rides on the symbol table, so it must
// survive the disk tier: a program restored from disk allocates and
// binds the same views as the one that was compiled.
func TestDiskCacheKeepsShiftViews(t *testing.T) {
	const src = "program v\nreal a(8), b(8)\nforall (i=1:8) a(i) = i\nb = cshift(a, 3) + a\nprint *, b\nend program v\n"
	dir := t.TempDir()
	var outs [2][]string
	for i := range outs {
		svc := New(1)
		svc.CacheDir = dir
		res := svc.Run(context.Background(), Job{Name: "v", File: "v.f90", Source: src, Config: f90y.DefaultConfig()})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if hits := svc.DiskStats().Hits; hits != int64(i) {
			t.Fatalf("service %d: %d disk hits", i, hits)
		}
		marked := 0
		for _, sym := range res.Artifact.Program.Syms.All() {
			if sym.ShiftView {
				marked++
				if a := res.Result.Store.Arrays[sym.Name]; a.Data != nil || !a.ShiftView {
					t.Errorf("service %d: %s owns memory after the run", i, sym.Name)
				}
			}
		}
		if marked != 1 || len(res.Result.Store.Materialized) != 0 {
			t.Errorf("service %d: %d symbols marked, materialized %v", i, marked, res.Result.Store.Materialized)
		}
		outs[i] = res.Result.Output
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Errorf("restored program printed %q, compiled %q", outs[1], outs[0])
	}
}

// TestDiskCacheCorruptEntryEvicted: every way an entry can be damaged —
// torn tail, bit flip, wrong key, garbage — is detected, counted,
// removed, and recompiled. A corrupt entry is never served.
func TestDiskCacheCorruptEntryEvicted(t *testing.T) {
	dir := t.TempDir()
	cold := New(1)
	cold.CacheDir = dir
	runThrough(t, cold)

	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one cache entry, got %v (%v)", ents, err)
	}
	path := filepath.Join(dir, ents[0].Name())
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string]func([]byte) []byte{
		"torn":    func(b []byte) []byte { return b[:len(b)/2] },
		"short":   func(b []byte) []byte { return b[:len(b)-1] },
		"bitflip": func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)/2] ^= 1; return c },
		"garbage": func([]byte) []byte { return []byte("not an artifact\n") },
		// An intact entry of the schema before shift views: its symbols
		// carry no ShiftView flag, so serving it would run without views.
		"parent schema": func(b []byte) []byte { return bytes.Replace(b, []byte(artMagic), []byte("f90y-art/v1"), 1) },
		"empty":         func([]byte) []byte { return nil },
	}
	for name, mangle := range damage {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mangle(pristine), 0o644); err != nil {
				t.Fatal(err)
			}
			svc := New(1)
			svc.CacheDir = dir
			_, out, _ := runThrough(t, svc)
			st := svc.DiskStats()
			if st.Hits != 0 || st.Corrupt != 1 {
				t.Errorf("disk stats %+v, want 0 hits, 1 corrupt", st)
			}
			if len(out) == 0 {
				t.Error("recompile after eviction produced no output")
			}
			// The damaged file is gone; the recompile rewrote a good one.
			if data, err := os.ReadFile(path); err != nil || len(data) != len(pristine) {
				t.Errorf("entry not rewritten after eviction: %d bytes, err %v", len(data), err)
			}
		})
	}
}

// TestDiskCacheIOFaults: the injector tears entry writes; the damaged
// entries are detected on the next probe, never served.
func TestDiskCacheIOFaults(t *testing.T) {
	dir := t.TempDir()
	cold := New(1)
	cold.CacheDir = dir
	cold.IOFaults = faults.NewIO(&faults.IOPlan{Seed: 1, Torn: 1})
	runThrough(t, cold)
	if st := cold.IOFaults.Stats(); st.Torn != 1 {
		t.Fatalf("io injector stats %+v, want exactly one torn write", st)
	}

	warm := New(1)
	warm.CacheDir = dir
	_, out, _ := runThrough(t, warm)
	if st := warm.DiskStats(); st.Hits != 0 || st.Corrupt != 1 {
		t.Errorf("disk stats after torn entry %+v, want 0 hits, 1 corrupt", st)
	}
	if len(out) == 0 {
		t.Error("run after torn cache entry produced no output")
	}
}

// TestDiskCacheKeyed: different configs land in different entries; a
// probe under the wrong config misses instead of serving the wrong
// program.
func TestDiskCacheKeyed(t *testing.T) {
	dir := t.TempDir()
	svc := New(1)
	svc.CacheDir = dir

	cfgA := f90y.DefaultConfig()
	cfgB := f90y.Config{} // unoptimized: different fingerprint
	if Fingerprint(cfgA) == Fingerprint(cfgB) {
		t.Fatal("test configs share a fingerprint")
	}
	ctx := context.Background()
	if _, err := svc.Compile(ctx, "dc.f90", diskSrc, cfgA); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Compile(ctx, "dc.f90", diskSrc, cfgB); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 2 {
		t.Errorf("two configs produced %d disk entries, want 2", len(ents))
	}
}

// TestDiskCachePrune: the byte bound removes oldest entries first.
func TestDiskCachePrune(t *testing.T) {
	dir := t.TempDir()
	svc := New(1)
	svc.CacheDir = dir
	for i, name := range []string{"a.art", "b.art", "c.art"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, make([]byte, 1000), 0o644); err != nil {
			t.Fatal(err)
		}
		// Strictly increasing mtimes so eviction order is deterministic.
		mod := int64(1700000000 + i)
		if err := os.Chtimes(path, timeUnix(mod), timeUnix(mod)); err != nil {
			t.Fatal(err)
		}
	}
	if n := svc.PruneDiskCache(2500); n != 1 {
		t.Errorf("prune removed %d entries, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "a.art")); !os.IsNotExist(err) {
		t.Error("oldest entry a.art survived the prune")
	}
	for _, name := range []string{"b.art", "c.art"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("entry %s should have survived: %v", name, err)
		}
	}
	if n := svc.PruneDiskCache(0); n != 0 {
		t.Errorf("prune with no bound removed %d entries", n)
	}
}
