package driver

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/obs"
	"f90y/internal/workload"
)

// TestExecWidthRule pins the one rule that decides an executor width:
// each of the service's concurrent runs gets its share of the cores,
// and never less than one.
func TestExecWidthRule(t *testing.T) {
	for _, c := range []struct{ procs, workers, want int }{
		{1, 1, 1},
		{2, 1, 2}, // f90yrun on the benchmark box
		{2, 2, 1}, // f90yd -workers 2 on the benchmark box
		{4, 1, 4},
		{8, 2, 4},
		{8, 3, 2},
		{4, 8, 1}, // more runs than cores
		{1, 64, 1},
	} {
		if got := execWidth(c.procs, c.workers); got != c.want {
			t.Errorf("execWidth(GOMAXPROCS %d, workers %d) = %d, want %d", c.procs, c.workers, got, c.want)
		}
	}
}

// poolCounters returns the sharded executor's wall-clock telemetry, the
// only trace a width leaves.
func poolCounters(col *obs.Collector) map[string]float64 {
	out := map[string]float64{}
	for k, v := range col.Counters() {
		if strings.HasPrefix(k, "execpool/") {
			out[k] = v
		}
	}
	return out
}

// TestRunDerivesExecutorWidth drives the rule end to end: on four cores
// a one-run service shards a multi-chunk program (the pool's telemetry
// shows up) and every modeled field, the output and the store equal the
// same job forced to width 1 — whose own Ctl.ExecWorkers wins, so no
// pool runs — while a single-chunk program never leaves the inline path.
// Not parallel: GOMAXPROCS is process-wide.
func TestRunDerivesExecutorWidth(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	svc := New(1)
	run := func(src string, m *cm2.Target, ctl cm2.Control) (*cm2.Result, map[string]float64) {
		t.Helper()
		col := obs.NewCollector()
		cfg := f90y.DefaultConfig()
		cfg.Obs = col
		res := svc.Run(context.Background(), Job{Name: "w", File: "w.f90", Source: src, Config: cfg, Machine: m, Ctl: ctl})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Result, poolCounters(col)
	}

	big := workload.SWE(96, 2)   // 9,216 elements: three chunks
	small := workload.SWE(16, 2) // 256 elements: one chunk
	for _, m := range Targets {
		target := m.Name
		wide, pool := run(big, m, cm2.Control{})
		if pool["execpool/workers"] == 0 {
			t.Errorf("%s: a 3-chunk program on 4 cores recorded no pool workers: %v", target, pool)
		}
		serial, pool := run(big, m, cm2.Control{ExecWorkers: 1})
		if len(pool) != 0 {
			t.Errorf("%s: the job's own ExecWorkers=1 did not win: %v", target, pool)
		}
		if a, b := resultFingerprint(wide), resultFingerprint(serial); a != b {
			t.Errorf("%s: derived width changed the result:\n wide   %s\n serial %s", target, a, b)
		}
		if !reflect.DeepEqual(wide.PELineCycles, serial.PELineCycles) || !reflect.DeepEqual(wide.CommLineCycles, serial.CommLineCycles) {
			t.Errorf("%s: derived width changed the per-line attribution", target)
		}
		if !reflect.DeepEqual(storeBits(wide.Store), storeBits(serial.Store)) {
			t.Errorf("%s: derived width changed the store", target)
		}
		if _, pool := run(small, m, cm2.Control{}); len(pool) != 0 {
			t.Errorf("%s: a single-chunk program left the inline path: %v", target, pool)
		}
	}
}
