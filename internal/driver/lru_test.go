package driver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"f90y"
	"f90y/internal/rt"
	"f90y/internal/workload"
)

// TestCacheLRUEntryBound fills the cache past its entry bound with
// distinct sources and asserts least-recently-used eviction: the
// oldest untouched entries recompile, a touched entry survives.
func TestCacheLRUEntryBound(t *testing.T) {
	svc := New(1)
	svc.MaxCacheEntries = 3
	ctx := context.Background()
	cfg := f90y.DefaultConfig()

	src := func(i int) string { return workload.Fig9(16) + fmt.Sprintf("! v%d\n", i) }
	for i := 0; i < 3; i++ {
		if _, err := svc.Compile(ctx, "fig9.f90", src(i), cfg); err != nil {
			t.Fatal(err)
		}
	}
	// Touch v0 so v1 becomes the LRU victim.
	if _, err := svc.Compile(ctx, "fig9.f90", src(0), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Compile(ctx, "fig9.f90", src(3), cfg); err != nil {
		t.Fatal(err)
	}
	entries, _, evictions := svc.CacheUsage()
	if entries != 3 {
		t.Errorf("entries = %d, want 3 (bound)", entries)
	}
	if evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}

	hits0, _ := svc.CacheStats()
	if _, err := svc.Compile(ctx, "fig9.f90", src(0), cfg); err != nil {
		t.Fatal(err) // v0 was touched: still resident
	}
	hits1, misses1 := svc.CacheStats()
	if hits1 != hits0+1 {
		t.Errorf("touched entry v0 was evicted (hits %d -> %d)", hits0, hits1)
	}
	if _, err := svc.Compile(ctx, "fig9.f90", src(1), cfg); err != nil {
		t.Fatal(err) // v1 was the LRU victim: recompiles
	}
	if _, misses2 := svc.CacheStats(); misses2 != misses1+1 {
		t.Errorf("LRU victim v1 still resident (misses %d -> %d)", misses1, misses2)
	}
}

// TestCacheByteBound asserts the byte bound evicts independently of the
// entry bound.
func TestCacheByteBound(t *testing.T) {
	svc := New(1)
	ctx := context.Background()
	cfg := f90y.DefaultConfig()

	// Learn one artifact's cost, then bound the cache to roughly two.
	if _, err := svc.Compile(ctx, "fig9.f90", workload.Fig9(16)+"! v0\n", cfg); err != nil {
		t.Fatal(err)
	}
	_, bytes, _ := svc.CacheUsage()
	if bytes <= 0 {
		t.Fatalf("cacheBytes = %d, want > 0", bytes)
	}
	svc2 := New(1)
	svc2.MaxCacheBytes = 2*bytes + bytes/2
	for i := 0; i < 4; i++ {
		src := workload.Fig9(16) + fmt.Sprintf("! v%d\n", i)
		if _, err := svc2.Compile(ctx, "fig9.f90", src, cfg); err != nil {
			t.Fatal(err)
		}
	}
	entries, used, evictions := svc2.CacheUsage()
	if used > svc2.MaxCacheBytes {
		t.Errorf("cache bytes %d exceed bound %d", used, svc2.MaxCacheBytes)
	}
	if evictions == 0 {
		t.Error("byte bound triggered no evictions across 4 inserts")
	}
	if entries > 3 {
		t.Errorf("entries = %d under a ~2.5-artifact byte bound", entries)
	}
}

// TestCacheErrorEntriesBounded is the regression test for the unbounded
// error-cache: deterministic compile errors stay cached (same error,
// zero recompiles, on a repeat) but a flood of DISTINCT bad sources is
// evicted like any other entry instead of growing the map forever.
func TestCacheErrorEntriesBounded(t *testing.T) {
	svc := New(1)
	svc.MaxCacheEntries = 4
	ctx := context.Background()
	cfg := f90y.DefaultConfig()

	bad := func(i int) string { return fmt.Sprintf("program p%d\nthis is not fortran\nend\n", i) }
	if _, err := svc.Compile(ctx, "bad.f90", bad(0), cfg); err == nil {
		t.Fatal("malformed program compiled")
	}
	// Repeat of the same bad source: served from cache, no recompile.
	_, missesBefore := svc.CacheStats()
	if _, err := svc.Compile(ctx, "bad.f90", bad(0), cfg); err == nil {
		t.Fatal("malformed program compiled on repeat")
	}
	if _, misses := svc.CacheStats(); misses != missesBefore {
		t.Errorf("repeated bad source recompiled (misses %d -> %d); deterministic errors should cache", missesBefore, misses)
	}

	for i := 1; i < 50; i++ {
		if _, err := svc.Compile(ctx, "bad.f90", bad(i), cfg); err == nil {
			t.Fatalf("bad(%d) compiled", i)
		}
	}
	entries, _, evictions := svc.CacheUsage()
	if entries > 4 {
		t.Errorf("error flood grew the cache to %d entries past the bound of 4", entries)
	}
	if evictions < 40 {
		t.Errorf("evictions = %d, want >= 40 for a 50-source flood over a 4-entry bound", evictions)
	}
}

// TestConcurrentByteBoundEviction races byte-bound eviction against
// Peek and hot-key hits from many goroutines (run under -race via
// `make race`). Distinct sources churn the LRU past its byte
// bound while readers hammer Peek and re-Compile one hot key; every
// returned artifact must carry the key it was asked for, and the final
// bookkeeping must balance: bytes within bound, eviction churn
// recorded, and the byte counter never driven negative.
func TestConcurrentByteBoundEviction(t *testing.T) {
	ctx := context.Background()
	cfg := f90y.DefaultConfig()

	// Learn one artifact's cost so the bound holds roughly two.
	probe := New(1)
	if _, err := probe.Compile(ctx, "fig9.f90", workload.Fig9(16)+"! probe\n", cfg); err != nil {
		t.Fatal(err)
	}
	_, cost, _ := probe.CacheUsage()

	svc := New(4)
	svc.MaxCacheBytes = 2*cost + cost/2
	hot := workload.Fig9(16) + "! hot\n"
	src := func(i int) string { return workload.Fig9(16) + fmt.Sprintf("! churn%d\n", i) }

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		// Writer: churn distinct keys through the byte bound.
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				s := src(g*8 + i)
				art, err := svc.Compile(ctx, "fig9.f90", s, cfg)
				if err != nil {
					t.Errorf("churn compile: %v", err)
					return
				}
				if art.Key != KeyOf(s, cfg) {
					t.Errorf("artifact key mismatch for churn%d", g*8+i)
					return
				}
			}
		}(g)
		// Hot reader: the same key over and over, hit or re-compile.
		go func() {
			defer wg.Done()
			want := KeyOf(hot, cfg)
			for i := 0; i < 16; i++ {
				art, err := svc.Compile(ctx, "fig9.f90", hot, cfg)
				if err != nil {
					t.Errorf("hot compile: %v", err)
					return
				}
				if art.Key != want {
					t.Error("hot artifact carries the wrong key")
					return
				}
			}
		}()
	}
	wg.Wait()

	entries, used, evictions := svc.CacheUsage()
	if used < 0 {
		t.Errorf("cache byte counter went negative: %d", used)
	}
	if used > svc.MaxCacheBytes {
		t.Errorf("settled cache bytes %d exceed bound %d", used, svc.MaxCacheBytes)
	}
	if evictions == 0 {
		t.Error("32 distinct keys over a ~2.5-artifact bound evicted nothing")
	}
	if entries == 0 {
		t.Error("cache emptied itself; the most recent entries should survive")
	}
}

// TestConcurrentEvictionPinsInFlight drives more simultaneous compiles
// than the entry bound admits: in-flight entries are pinned (evicting
// one would orphan its waiters' singleflight slot), so every request
// must still complete with its own artifact, and once the dust settles
// the bound must hold again.
func TestConcurrentEvictionPinsInFlight(t *testing.T) {
	ctx := context.Background()
	cfg := f90y.DefaultConfig()
	svc := New(8)
	svc.MaxCacheEntries = 1

	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := workload.Fig9(16) + fmt.Sprintf("! pin%d\n", i)
			art, err := svc.Compile(ctx, "fig9.f90", s, cfg)
			if err != nil {
				t.Errorf("pin%d: %v", i, err)
				return
			}
			if art.Key != KeyOf(s, cfg) {
				t.Errorf("pin%d served someone else's artifact", i)
			}
		}(i)
	}
	wg.Wait()

	entries, used, _ := svc.CacheUsage()
	if entries > 1 {
		t.Errorf("settled entries = %d, want <= 1 (bound) once no compile is in flight", entries)
	}
	if used < 0 {
		t.Errorf("cache byte counter went negative: %d", used)
	}
}

// TestConcurrentErrorEntryEviction floods the cache with distinct
// deterministic compile errors from several goroutines while one
// goroutine re-asks a fixed bad source. Error entries are bounded like
// successes, eviction churn must not corrupt the bookkeeping, and the
// flood must never upgrade a cached error into a success.
func TestConcurrentErrorEntryEviction(t *testing.T) {
	ctx := context.Background()
	cfg := f90y.DefaultConfig()
	svc := New(4)
	svc.MaxCacheEntries = 4

	bad := func(i int) string { return fmt.Sprintf("program p%d\nthis is not fortran\nend\n", i) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				if _, err := svc.Compile(ctx, "bad.f90", bad(g*12+i), cfg); err == nil {
					t.Errorf("bad(%d) compiled", g*12+i)
					return
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if _, err := svc.Compile(ctx, "bad.f90", bad(0), cfg); err == nil {
					t.Error("repeated bad source compiled")
					return
				}
			}
		}()
	}
	wg.Wait()

	entries, used, evictions := svc.CacheUsage()
	if entries > 4 {
		t.Errorf("error flood grew the cache to %d entries past the bound of 4", entries)
	}
	if used < 0 {
		t.Errorf("cache byte counter went negative: %d", used)
	}
	if evictions == 0 {
		t.Error("48 distinct errors over a 4-entry bound evicted nothing")
	}
}

// TestCacheCanceledCompileNotCounted: the cancel-eviction path must not
// corrupt the LRU bookkeeping (bytes stay balanced, retry works).
func TestCacheCanceledCompileNotCounted(t *testing.T) {
	svc := New(1)
	svc.MaxCacheEntries = 2
	src := workload.SWE(16, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Compile(ctx, "swe.f90", src, f90y.DefaultConfig()); !errors.Is(err, rt.ErrCanceled) {
		t.Fatalf("pre-canceled compile error = %v, want ErrCanceled", err)
	}
	entries, bytes, _ := svc.CacheUsage()
	if entries != 0 || bytes != 0 {
		t.Errorf("canceled compile left residue: %d entries, %d bytes", entries, bytes)
	}
	if _, err := svc.Compile(context.Background(), "swe.f90", src, f90y.DefaultConfig()); err != nil {
		t.Fatalf("retry after canceled compile: %v", err)
	}
}
