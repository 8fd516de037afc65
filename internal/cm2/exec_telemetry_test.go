package cm2_test

// TestConcurrentExecPoolTelemetry is the race-enabled gate for the
// sharded executor's runtime telemetry (wired into `make race`):
// every pool worker records spans, counters, and histograms into ONE
// shared obs.Collector concurrently, and the run's modeled telemetry
// must still be bit-identical to a serial run's — only the wall-clock
// "execpool/" instrumentation may differ. It also pins the tentpole's
// attribution invariants: PELineCycles is bit-identical for every
// worker count, sums exactly to PECycles, and its per-class marginals
// equal PEClassCycles.

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/obs"
	"f90y/internal/workload"
)

// modeledCounters strips the wall-clock pool instrumentation and the
// count of comm payloads filled on the pool, leaving only counters
// derived from the deterministic machine model.
func modeledCounters(col *obs.Collector) map[string]float64 {
	out := map[string]float64{}
	for k, v := range col.Counters() {
		if !strings.HasPrefix(k, "execpool/") && k != "rt/comm/parallel" {
			out[k] = v
		}
	}
	return out
}

func TestConcurrentExecPoolTelemetry(t *testing.T) {
	// The grid must span two executor chunks (2 × 4096 elements) or the
	// pool runs one worker and records nothing: 96x96 = 9216 elements =
	// 3 chunks.
	src := workload.SWE(96, 2)
	comp, err := f90y.Compile("swe.f90", src, f90y.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) (*cm2.Result, *obs.Collector) {
		t.Helper()
		col := obs.NewCollector()
		res, err := cm2.Default().RunCtx(context.Background(), comp.Program, nil, col, &cm2.Control{ExecWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, col
	}

	ref, refCol := run(0)
	refCounters := modeledCounters(refCol)

	// Conservation on the serial reference: the per-line attribution sums
	// exactly to the PE cycle total and its per-class marginals equal the
	// per-class tallies (all values are integral, so sums are exact).
	total := 0.0
	classes := map[string]float64{}
	for cell, v := range ref.PELineCycles {
		total += v
		classes[cell.Class] += v
	}
	if total != ref.PECycles {
		t.Errorf("line attribution sums to %v, PECycles = %v", total, ref.PECycles)
	}
	for cl, want := range ref.PEClassCycles {
		if classes[cl] != want {
			t.Errorf("class marginal %s = %v, PEClassCycles = %v", cl, classes[cl], want)
		}
	}
	for cl := range classes {
		if _, ok := ref.PEClassCycles[cl]; !ok && cl != cm2.DegradeClass {
			t.Errorf("line attribution has class %s absent from PEClassCycles", cl)
		}
	}

	for _, workers := range []int{4, -1} {
		got, col := run(workers)

		// The merged modeled telemetry equals the serial run's exactly.
		counters := modeledCounters(col)
		if len(counters) != len(refCounters) {
			t.Errorf("workers=%d: %d modeled counters, want %d", workers, len(counters), len(refCounters))
		}
		for k, want := range refCounters {
			if counters[k] != want {
				t.Errorf("workers=%d: counter %s = %v, want %v", workers, k, counters[k], want)
			}
		}
		refHist := refCol.Histograms()["cm2/dispatch-cycles"]
		gotHist := col.Histograms()["cm2/dispatch-cycles"]
		if refHist == nil || gotHist == nil {
			t.Fatalf("workers=%d: missing dispatch-cycles histogram", workers)
		}
		if gotHist.Count != refHist.Count || gotHist.Sum != refHist.Sum {
			t.Errorf("workers=%d: dispatch histogram (count %d, sum %v), want (%d, %v)",
				workers, gotHist.Count, gotHist.Sum, refHist.Count, refHist.Sum)
		}

		// Line attribution is bit-identical for every worker count.
		if len(got.PELineCycles) != len(ref.PELineCycles) {
			t.Errorf("workers=%d: %d attribution cells, want %d", workers, len(got.PELineCycles), len(ref.PELineCycles))
		}
		for cell, want := range ref.PELineCycles {
			if g := got.PELineCycles[cell]; math.Float64bits(g) != math.Float64bits(want) {
				t.Errorf("workers=%d: %v = %v, want %v (not bit-exact)", workers, cell, g, want)
			}
		}

		// The pool itself reported: workers joined, chunks were claimed,
		// and the chunk histograms saw one sample per claimed chunk. A
		// negative count resolves to GOMAXPROCS, which on a single-CPU
		// host is one worker — no fan-out, no pool telemetry.
		effective := workers
		if effective < 0 {
			effective = runtime.GOMAXPROCS(0)
		}
		if effective <= 1 {
			continue
		}
		pool := col.Counters()
		if pool["execpool/workers"] == 0 {
			t.Errorf("workers=%d: no pool workers recorded", workers)
		}
		chunks := pool["execpool/chunks"]
		if chunks == 0 {
			t.Errorf("workers=%d: no chunks recorded", workers)
		}
		if h := col.Histograms()["execpool/chunk-ns"]; h == nil || float64(h.Count) != chunks {
			t.Errorf("workers=%d: chunk-ns histogram count != chunks counter %v", workers, chunks)
		}
		if h := col.Histograms()["execpool/chunk-claim-wait-ns"]; h == nil || float64(h.Count) != chunks {
			t.Errorf("workers=%d: claim-wait histogram count != chunks counter %v", workers, chunks)
		}

		// Per-worker tracks appear in the span log.
		hasTrack := false
		for _, s := range col.Spans() {
			if s.Track > 0 {
				hasTrack = true
				break
			}
		}
		if !hasTrack {
			t.Errorf("workers=%d: no spans recorded on worker tracks", workers)
		}
	}
}
