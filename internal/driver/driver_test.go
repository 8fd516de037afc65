package driver

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/obs"
	"f90y/internal/pe"
	"f90y/internal/rt"
	"f90y/internal/workload"
)

// resultFingerprint renders every deterministic field of a result so
// runs can be compared for bit-identity (spans/wall-clock excluded).
func resultFingerprint(r *cm2.Result) string {
	return fmt.Sprintf("host=%v pe=%v comm=%v flops=%d node=%d comm-calls=%d gflops=%v out=%q peclass=%v routines=%v commclass=%v hostclass=%v",
		r.HostCycles, r.PECycles, r.CommCycles, r.Flops, r.NodeCalls, r.CommCalls,
		r.GFLOPS(), strings.Join(r.Output, "\n"),
		sortedMap(r.PEClassCycles), sortedMap(r.PERoutineCycles),
		sortedMap(r.CommClassCycles), sortedMap(r.HostClassCycles))
}

func sortedMap(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// insertion sort; the maps are tiny
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v;", k, m[k])
	}
	return b.String()
}

// TestConcurrentRunsDeterministic runs many goroutines over one cached
// *fe.Program on one Machine configuration and asserts every result is
// bit-identical to a serial baseline. Run under -race this is also the
// proof that a shared Artifact and a shared Machine are safe.
func TestConcurrentRunsDeterministic(t *testing.T) {
	svc := New(8)
	src := workload.SWE(64, 3)
	cfg := f90y.DefaultConfig()
	art, err := svc.Compile(context.Background(), "swe.f90", src, cfg)
	if err != nil {
		t.Fatal(err)
	}

	machine := cm2.Default()
	baseline, err := machine.RunCtx(context.Background(), art.Program, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := resultFingerprint(baseline)

	const goroutines = 16
	got := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := machine.RunCtx(context.Background(), art.Program, nil, nil, nil)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = resultFingerprint(res)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("goroutine %d result differs from serial baseline:\n got %s\nwant %s", i, got[i], want)
		}
	}
}

// TestConcurrentBatchMatchesSerial runs the same job set serially
// (workers=1) and in parallel and asserts result-for-result identity,
// across both targets and with per-job recorders attached.
func TestConcurrentBatchMatchesSerial(t *testing.T) {
	jobs := func() []Job {
		var js []Job
		for i, m := range slices.Concat(Targets, Targets) {
			cfg := f90y.DefaultConfig()
			cfg.Obs = obs.NewCollector()
			js = append(js, Job{
				Name:    fmt.Sprintf("swe-%s-%d", m.Name, i),
				File:    "swe.f90",
				Source:  workload.SWE(32, 2),
				Config:  cfg,
				Machine: m,
			})
		}
		cfg := f90y.Config{Opt: f90y.DefaultConfig().Opt, PE: pe.Naive}
		js = append(js, Job{Name: "fig9-naive-pe", File: "fig9.f90", Source: workload.Fig9(32), Config: cfg})
		return js
	}

	serial := New(1).RunBatch(context.Background(), jobs())
	parallel := New(8).RunBatch(context.Background(), jobs())
	if len(serial) != len(parallel) {
		t.Fatalf("result lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d errors: serial=%v parallel=%v", i, serial[i].Err, parallel[i].Err)
		}
		s, p := resultFingerprint(serial[i].Result), resultFingerprint(parallel[i].Result)
		if s != p {
			t.Errorf("job %d (%s) differs:\nserial   %s\nparallel %s", i, serial[i].Job.Name, s, p)
		}
	}
}

// TestConcurrentCacheHitReturnsSameArtifact asserts hit/miss counting,
// the cached flag a request gets back, pointer identity on a hit, a
// changed config missing, and — via span counts — that a hit re-runs no
// pipeline phase.
func TestConcurrentCacheHitReturnsSameArtifact(t *testing.T) {
	svc := New(4)
	src := workload.Fig9(16)
	ctx := context.Background()

	cfg1 := f90y.DefaultConfig()
	col1 := obs.NewCollector()
	cfg1.Obs = col1
	a1, cached, err := svc.CompileCached(ctx, "fig9.f90", src, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("the compiling miss reported itself cached")
	}
	if n := len(col1.Spans()); n == 0 {
		t.Fatal("compiling miss recorded no pipeline spans")
	}

	cfg2 := f90y.DefaultConfig()
	col2 := obs.NewCollector()
	cfg2.Obs = col2
	a2, cached, err := svc.CompileCached(ctx, "fig9.f90", src, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("a hit on a finished entry did not report itself cached")
	}
	if a1 != a2 {
		t.Errorf("cache hit returned a different artifact pointer: %p vs %p", a1, a2)
	}
	if n := len(col2.Spans()); n != 0 {
		t.Errorf("cache hit re-ran %d pipeline phases (spans: %v)", n, col2.Spans())
	}
	if hits, misses := svc.CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits, %d misses; want 1, 1", hits, misses)
	}

	// A different PE config is a different key.
	cfg3 := f90y.DefaultConfig()
	cfg3.PE = pe.Naive
	a3, err := svc.Compile(ctx, "fig9.f90", src, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if a3 == a1 {
		t.Error("different config served the same artifact")
	}
	if _, misses := svc.CacheStats(); misses != 2 {
		t.Errorf("misses = %d, want 2", misses)
	}

	// The artifacts of equal keys are the very same immutable program.
	if !reflect.DeepEqual(a1.Key, KeyOf(src, cfg2)) {
		t.Error("artifact key does not round-trip through KeyOf")
	}
}

// TestConcurrentCompileSingleflight issues many concurrent compiles of
// one key and asserts they all get the same artifact from exactly one
// pipeline run.
func TestConcurrentCompileSingleflight(t *testing.T) {
	svc := New(8)
	src := workload.SWE(32, 2)
	const goroutines = 12
	arts := make([]*Artifact, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := svc.Compile(context.Background(), "swe.f90", src, f90y.DefaultConfig())
			if err != nil {
				t.Error(err)
				return
			}
			arts[i] = a
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if arts[i] != arts[0] {
			t.Fatalf("goroutine %d got a different artifact", i)
		}
	}
	if _, misses := svc.CacheStats(); misses != 1 {
		t.Errorf("misses = %d, want 1 (singleflight)", misses)
	}
}

// TestConcurrentCancelMidRun cancels a long run mid-flight and asserts
// it returns promptly with the structured sentinel chain.
func TestConcurrentCancelMidRun(t *testing.T) {
	svc := New(2)
	// Plenty of host boundaries: many steps over a small grid.
	src := workload.SWE(64, 400)
	art, err := svc.Compile(context.Background(), "swe.f90", src, f90y.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := cm2.Default().RunCtx(ctx, art.Program, nil, nil, nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, rt.ErrCanceled) {
			t.Fatalf("error %v does not wrap rt.ErrCanceled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v does not wrap context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run did not stop within 10s of cancel (started %v ago)", time.Since(start))
	}
}

// TestConcurrentDeadlineExpires runs under a deadline shorter than the
// program and asserts the deadline error chain.
func TestConcurrentDeadlineExpires(t *testing.T) {
	svc := New(2)
	src := workload.SWE(64, 400)
	if _, err := svc.Compile(context.Background(), "swe.f90", src, f90y.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	res := svc.Run(ctx, Job{Name: "doomed", File: "swe.f90", Source: src, Config: f90y.DefaultConfig()})
	if res.Err == nil {
		t.Skip("machine finished inside the deadline; nothing to assert")
	}
	if !errors.Is(res.Err, rt.ErrCanceled) || !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap ErrCanceled and DeadlineExceeded", res.Err)
	}
}

// TestConcurrentCompileCancelEvicted asserts a compile aborted by its
// own context is not cached as a permanent failure.
func TestConcurrentCompileCancelEvicted(t *testing.T) {
	svc := New(2)
	src := workload.SWE(16, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: CompileCtx fails at the first phase gate
	if _, err := svc.Compile(ctx, "swe.f90", src, f90y.DefaultConfig()); !errors.Is(err, rt.ErrCanceled) {
		t.Fatalf("pre-canceled compile error = %v, want ErrCanceled", err)
	}
	a, err := svc.Compile(context.Background(), "swe.f90", src, f90y.DefaultConfig())
	if err != nil || a == nil {
		t.Fatalf("retry after canceled compile failed: %v", err)
	}
}

// TestServiceBudgetKillsRunaway: the service-wide MaxCycles default is
// enforced on jobs that bring no budget of their own, killing a
// runaway loop deterministically with rt.ErrBudget on both targets.
func TestServiceBudgetKillsRunaway(t *testing.T) {
	src := "program loop\ninteger :: i\ni = 0\ndo while (i < 1)\n  i = i * 1\nend do\nend program loop\n"
	svc := New(2)
	svc.MaxCycles = 100_000
	for _, m := range Targets {
		target := m.Name
		res := svc.Run(context.Background(), Job{
			Name: "runaway", File: "loop.f90", Source: src,
			Config: f90y.DefaultConfig(), Machine: m,
		})
		if !errors.Is(res.Err, rt.ErrBudget) {
			t.Errorf("%s: want rt.ErrBudget, got %v", target, res.Err)
		}
	}
	// A job with its own tighter Control keeps it: the service default
	// must not overwrite an explicit per-job budget.
	res := svc.Run(context.Background(), Job{
		Name: "own-budget", File: "loop.f90", Source: src,
		Config: f90y.DefaultConfig(), Ctl: cm2.Control{MaxCycles: 10_000},
	})
	if !errors.Is(res.Err, rt.ErrBudget) {
		t.Errorf("per-job budget: want rt.ErrBudget, got %v", res.Err)
	}
	if !strings.Contains(res.Err.Error(), "10000") {
		t.Errorf("per-job budget of 10000 not the one enforced: %v", res.Err)
	}
}
