// Package driver is the concurrent compile-and-run service layer: it
// turns the one-shot pipeline of the root f90y package into a reusable
// artifact driven over many programs and machine configurations, the
// way the paper's own evaluation (§6) drives one compiler across
// optimization variants and targets.
//
// Three pieces:
//
//   - Service.Compile: a concurrency-safe compile cache keyed by
//     (source hash, config fingerprint). The first request for a key
//     runs the pipeline; every later request — including concurrent
//     ones, which wait rather than duplicating work — is served the
//     same immutable *Artifact without re-running any pipeline phase.
//     The cache is LRU-bounded in entries and estimated bytes (see
//     MaxCacheEntries/MaxCacheBytes), so a long-running server cannot
//     grow it without limit; in-flight compiles are never evicted.
//   - Service.Run / Service.RunBatch: compile+run jobs, batch-executed
//     on a bounded worker pool with per-job telemetry recorders. Cycle
//     totals, GFLOPS, and output are deterministic and independent of
//     the worker count: a run touches no state shared with its
//     neighbors (each has its own store; machines are read-only). Each
//     run shards its routine dispatches across its share of the host's
//     cores, GOMAXPROCS / workers (execWidth) — derived, never asked.
//   - The shared CLI wiring (cli.go): -faults/-checkpoint/-metrics/
//     -trace flag plumbing, deduplicated out of the three commands.
package driver

import (
	"container/list"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"f90y"
	"f90y/internal/faults"
	"f90y/internal/fe"
	"f90y/internal/rt"
)

// Key identifies one compilation: a content hash of the source and a
// fingerprint of the compilation-relevant configuration.
type Key struct {
	Source [sha256.Size]byte
	Config string
}

// KeyOf computes the cache key for compiling src under cfg.
func KeyOf(src string, cfg f90y.Config) Key {
	return Key{Source: sha256.Sum256([]byte(src)), Config: Fingerprint(cfg)}
}

// Fingerprint renders the parts of a Config that change the pipeline's
// artifacts: the NIR transformation options and the PE code-generator
// options. Machine and Obs are deliberately excluded — the target
// machine is a run-time choice (the partitioned program is machine-
// independent, §5.3.1), and telemetry never alters what is compiled.
//
// The rendering is explicit, field by field, NOT reflective (%+v):
// adding, removing, or reordering a field in opt.Options or pe.Options
// must be a conscious cache-key decision, enforced by the
// TestFingerprint* golden and field-count tests. Bump the "fp1" prefix
// when the meaning of an existing field changes.
func Fingerprint(cfg f90y.Config) string {
	o, p := cfg.Opt, cfg.PE
	fp := fmt.Sprintf(
		"fp1|opt:pad=%t,block=%t|pe:cse=%t,chain=%t,fmadd=%t,overlap=%t,vregs=%d",
		o.PadSections, o.BlockDomains,
		p.CSE, p.Chaining, p.Fmadd, p.Overlap, p.VRegs)
	// Distribution overrides change the partitioned program (layout
	// stamps, comm classification), so they are part of the key. The
	// empty case renders nothing, keeping every pre-existing key byte
	// stable.
	if len(cfg.Distribute) > 0 {
		fp += "|dist:" + strings.Join(cfg.Distribute, ";")
	}
	return fp
}

// Artifact is one cached compilation: the partitioned program, the one
// pipeline output a run reads, shared by every run of the same (source,
// config). It is immutable — runs build their own stores — and has the
// same shape whether it was compiled in this process or loaded from the
// disk tier. The AST and NIR modules are not retained; a caller that
// wants them (f90yc -dump) calls f90y.CompileCtx itself.
type Artifact struct {
	Key     Key
	Program *fe.Program
}

// entry is one cache slot. The first requester compiles and closes
// ready; concurrent requesters for the same key block on ready instead
// of duplicating the pipeline. Waiters hold the *entry directly, so
// evicting a slot from the map/LRU never disturbs a request already
// waiting on it.
type entry struct {
	ready chan struct{}
	art   *Artifact
	err   error

	// LRU bookkeeping, all guarded by Service.mu.
	key  Key
	elem *list.Element
	cost int64
	done bool // compile finished (success or error); only done entries evict
}

// Service is the concurrent compile-and-run service. The zero value is
// not usable; construct with New. All methods are safe for concurrent
// use.
type Service struct {
	workers int

	// MaxCycles is the service-wide watchdog budget enforced on every
	// run whose job does not set its own: a runaway request is killed
	// deterministically with an error wrapping rt.ErrBudget instead of
	// occupying a worker forever. Zero disables the default. Set before
	// the first Run/RunBatch call; it is read concurrently afterwards.
	MaxCycles float64

	// MaxCacheEntries and MaxCacheBytes bound the compile cache:
	// entries beyond either bound are evicted least-recently-used.
	// Zero leaves that dimension unbounded (the CLI default — a batch
	// run compiles a fixed set of programs). Error entries count too,
	// so a flood of distinct bad sources is bounded like everything
	// else. Set before the first Compile call; they are read under the
	// cache lock afterwards.
	MaxCacheEntries int
	MaxCacheBytes   int64

	// CacheDir enables the persistent artifact tier under the in-memory
	// LRU: finished compiles are written as checksummed, content-
	// addressed entries (see diskcache.go), and a cache miss probes the
	// directory before running the pipeline. Entries that fail their
	// integrity or identity checks are evicted and recompiled, never
	// served. Empty disables the tier (the CLI default). Set before the
	// first Compile call.
	CacheDir string

	// IOFaults, when non-nil, mangles disk-tier writes (torn/short) for
	// crash testing. Set before the first Compile call.
	IOFaults *faults.IOInjector

	mu         sync.Mutex
	disk       DiskCacheStats
	cache      map[Key]*entry
	lru        *list.List // of *entry; front = most recently used
	cacheBytes int64      // summed cost of done entries
	hits       int64
	misses     int64
	evictions  int64
}

// New returns a service whose batch executor runs up to workers jobs
// concurrently; workers < 1 selects GOMAXPROCS.
func New(workers int) *Service {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Service{workers: workers, cache: map[Key]*entry{}, lru: list.New()}
}

// Workers is the batch executor's concurrency bound.
func (s *Service) Workers() int { return s.workers }

// CacheStats reports cache hits and misses so far. A hit is any request
// served an existing entry, including one that waited for an in-flight
// compile of the same key.
func (s *Service) CacheStats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// CacheUsage reports the cache's current occupancy — resident entries
// (including in-flight compiles) and the summed estimated bytes of the
// finished ones — plus the number of LRU evictions so far.
func (s *Service) CacheUsage() (entries int, bytes, evictions int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache), s.cacheBytes, s.evictions
}

// artifactCost estimates an entry's resident size for the byte bound:
// the source it was compiled from plus a per-instruction and per-host-op
// charge for the retained pipeline artifacts, and a fixed overhead. The
// estimate only needs to be monotone in real footprint — the bound is a
// capacity-planning knob, not an accountant.
func artifactCost(src string, prog *fe.Program) int64 {
	instrs := 0
	for _, r := range prog.Routines {
		instrs += r.InstrCount()
	}
	ops := 0
	for _, n := range prog.CountOps() {
		ops += n
	}
	return int64(1024+len(src)) + 64*int64(instrs) + 48*int64(ops)
}

// touchLocked marks e most recently used. Callers hold s.mu.
func (s *Service) touchLocked(e *entry) {
	if e.elem != nil {
		s.lru.MoveToFront(e.elem)
	}
}

// finishLocked records a completed compile (success or deterministic
// error) and evicts over-bound LRU entries. Callers hold s.mu.
func (s *Service) finishLocked(e *entry, cost int64) {
	// The entry may have been evicted while compiling (possible only
	// under a pathological entry bound smaller than the in-flight count);
	// it still serves its waiters but owns no LRU slot.
	if e.elem == nil {
		return
	}
	e.done = true
	e.cost = cost
	s.cacheBytes += cost
	s.evictLocked()
}

// evictLocked removes least-recently-used finished entries until both
// bounds hold. In-flight entries are pinned: evicting one would orphan
// its waiters' singleflight slot, and it has no settled cost yet.
func (s *Service) evictLocked() {
	over := func() bool {
		return (s.MaxCacheEntries > 0 && len(s.cache) > s.MaxCacheEntries) ||
			(s.MaxCacheBytes > 0 && s.cacheBytes > s.MaxCacheBytes)
	}
	for el := s.lru.Back(); el != nil && over(); {
		prev := el.Prev()
		e := el.Value.(*entry)
		if e.done {
			s.removeLocked(e)
			s.evictions++
		}
		el = prev
	}
}

// removeLocked drops e from the map, the LRU list, and the byte total.
// Callers hold s.mu.
func (s *Service) removeLocked(e *entry) {
	if e.elem != nil {
		s.lru.Remove(e.elem)
		e.elem = nil
	}
	delete(s.cache, e.key)
	if e.done {
		s.cacheBytes -= e.cost
	}
}

// Compile returns the cached artifact for (src, cfg), compiling on the
// first request. On a hit no pipeline phase re-runs and the same
// *Artifact pointer is returned; cfg.Obs receives compile spans only
// on the miss that actually compiles. A context canceled while waiting
// for another goroutine's in-flight compile abandons the wait (the
// compile itself continues for its owner); a compile aborted by its own
// context is evicted so a later request can retry. Deterministic
// compile errors are cached like successes — and bounded like them, so
// distinct bad sources cannot grow the cache past its LRU bounds.
func (s *Service) Compile(ctx context.Context, file, src string, cfg f90y.Config) (*Artifact, error) {
	art, _, err := s.CompileCached(ctx, file, src, cfg)
	return art, err
}

// CompileCached is Compile that also reports whether the entry was
// resident and finished at lookup — a request that did no pipeline work
// and waited for none.
func (s *Service) CompileCached(ctx context.Context, file, src string, cfg f90y.Config) (art *Artifact, cached bool, err error) {
	key := KeyOf(src, cfg)
	s.mu.Lock()
	e, ok := s.cache[key]
	if ok {
		cached = e.done
		s.hits++
		s.touchLocked(e)
		s.mu.Unlock()
		select {
		case <-e.ready:
			return e.art, cached, e.err
		case <-ctx.Done():
			return nil, cached, fmt.Errorf("driver: compile %s: %w", file, rt.Canceled(ctx))
		}
	}
	s.misses++
	e = &entry{ready: make(chan struct{}), key: key}
	e.elem = s.lru.PushFront(e)
	s.cache[key] = e
	s.mu.Unlock()

	// Persistent tier: a prior process may have compiled this key. The
	// singleflight slot is already claimed, so concurrent requesters
	// wait on this probe exactly as they would on a compile.
	prog := s.loadDisk(key)
	if prog == nil {
		comp, err := f90y.CompileCtx(ctx, file, src, cfg)
		if err != nil {
			e.err = err
			s.mu.Lock()
			if errors.Is(err, rt.ErrCanceled) {
				// A canceled compile says nothing about the program; evict
				// so the next request retries under its own context.
				s.removeLocked(e)
			} else {
				s.finishLocked(e, int64(256+len(src)))
			}
			s.mu.Unlock()
			close(e.ready)
			return nil, false, err
		}
		prog = comp.Program
		s.storeDisk(key, prog)
	}
	e.art = &Artifact{Key: key, Program: prog}
	s.mu.Lock()
	s.finishLocked(e, artifactCost(src, prog))
	s.mu.Unlock()
	close(e.ready)
	return e.art, false, nil
}
