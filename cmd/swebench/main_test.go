package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"f90y/internal/driver"
)

// suiteIDs lists every experiment, in presentation order.
func suiteIDs() []string {
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	return ids
}

// TestConcurrentSuiteMatchesSerial renders the whole suite on a pool of
// one and a pool of eight and asserts the output is byte-identical: the
// experiments share a compile cache but no mutable run state, and the
// pool flushes buffers in experiment order.
func TestConcurrentSuiteMatchesSerial(t *testing.T) {
	const n, steps = 32, 2
	var serial, parallel bytes.Buffer
	if err := runSuite(&serial, driver.New(1), suiteIDs(), n, steps, 1); err != nil {
		t.Fatal(err)
	}
	if err := runSuite(&parallel, driver.New(8), suiteIDs(), n, steps, 8); err != nil {
		t.Fatal(err)
	}
	if serial.Len() == 0 {
		t.Fatal("serial suite produced no output")
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Errorf("parallel suite output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
	if !strings.Contains(serial.String(), "E7 (§5.3.1)") {
		t.Error("suite output is missing the E7 table")
	}
}

// TestSuitePoolCoversHost holds the one derivation of the suite's
// parallelism at several host sizes: the pool times each run's executor
// width (GOMAXPROCS / service workers, as internal/driver derives it)
// never exceeds the host and leaves fewer than a pool's worth of its
// cores idle. A pool of one over a GOMAXPROCS-wide service runs every
// table on one core.
func TestSuitePoolCoversHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 4, 8, 16, 64} {
		runtime.GOMAXPROCS(procs)
		for _, jobs := range []int{1, len(experiments)} {
			svc, pool := suitePool(jobs)
			width := max(1, procs/svc.Workers())
			if busy := pool * width; pool > jobs || busy > procs || busy <= procs-pool {
				t.Errorf("procs=%d, %d experiments: a pool of %d at width %d keeps %d cores busy",
					procs, jobs, pool, width, busy)
			}
		}
	}
}

// TestConcurrentSuiteSharesCompiles asserts the experiments hit the
// shared cache: e1 and e7 compile the same SWE source under the same
// config, so a full-suite pass must record at least one cache hit.
func TestConcurrentSuiteSharesCompiles(t *testing.T) {
	svc := driver.New(4)
	var out bytes.Buffer
	if err := runSuite(&out, svc, suiteIDs(), 32, 2, 4); err != nil {
		t.Fatal(err)
	}
	hits, misses := svc.CacheStats()
	if hits == 0 {
		t.Errorf("full suite recorded no compile-cache hits (misses=%d); e1 and e7 share the SWE compile", misses)
	}
}

// TestBenchRecordByteDeterministic asserts the -json record holds
// modeled fields only: two builds render byte-identical JSON with no
// field masked, which is what lets modeled-check be a plain cmp.
func TestBenchRecordByteDeterministic(t *testing.T) {
	var out [2]bytes.Buffer
	for i := range out {
		rec, err := buildRecord(32, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeRecordTo(&out[i], rec); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Errorf("bench record differs between two runs:\n%s\nvs\n%s", &out[0], &out[1])
	}
}
