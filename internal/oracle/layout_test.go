package oracle

import (
	"slices"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/cm5"
	"f90y/internal/driver"
	"f90y/internal/partition"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/workload"
)

// TestVerifyLayoutKernels runs the layout kernel trio through the
// three-way differential oracle under three data distributions each:
// the directive-free default (BLOCK everywhere), an explicit CYCLIC
// layout, and an ALIGN'd layout. Distributions change only the modeled
// communication geometry — never values — so every combination must
// agree with the reference interpreter and bit-exactly across machines.
func TestVerifyLayoutKernels(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"transpose-block", workload.LayoutTranspose(16, 2, nil)},
		{"transpose-cyclic", workload.LayoutTranspose(16, 2, []string{
			"!HPF$ DISTRIBUTE a(CYCLIC, CYCLIC)",
			"!HPF$ ALIGN b WITH a",
			"!HPF$ ALIGN c WITH a",
		})},
		{"transpose-aligned", workload.LayoutTranspose(16, 2, []string{
			"!HPF$ DISTRIBUTE a(BLOCK, *)",
			"!HPF$ DISTRIBUTE b(*, BLOCK)",
			"!HPF$ ALIGN c WITH b",
		})},
		{"fft-block", workload.LayoutFFT(64, 6, nil)},
		{"fft-cyclic", workload.LayoutFFT(64, 6, []string{
			"!HPF$ DISTRIBUTE x(CYCLIC)",
			"!HPF$ ALIGN y WITH x",
		})},
		{"fft-aligned", workload.LayoutFFT(64, 6, []string{
			"!HPF$ PROCESSORS procs(16)",
			"!HPF$ DISTRIBUTE x(CYCLIC(2)) ONTO procs",
			"!HPF$ ALIGN y WITH x",
		})},
		{"gather-block", workload.LayoutGather(64, 2, nil)},
		{"gather-cyclic", workload.LayoutGather(64, 2, []string{
			"!HPF$ DISTRIBUTE a(CYCLIC)",
			"!HPF$ ALIGN b WITH a",
		})},
		{"gather-aligned", workload.LayoutGather(64, 2, []string{
			"!HPF$ DISTRIBUTE a(CYCLIC(4))",
			"!HPF$ ALIGN b WITH a",
			"!HPF$ ALIGN idx WITH a",
		})},
	}
	for _, c := range cases {
		rep, err := Verify(c.name+".f90", c.src, Options{})
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if rep.Divergence != nil {
			t.Errorf("%s: divergence %s", c.name, rep.Divergence)
		}
	}
}

// TestVerifyChecksWhatRan: the oracle verifies the program the caller
// ran, not the source as written. `f90yrun -distribute x=cyclic -verify`
// and a served `"verify": true` pass their job's config; the override
// must reach the verified runs — under CYCLIC more of the FFT's shifts
// leave the NEWS grid for the router than under the all-BLOCK default,
// whose longest strides are routed too — and still agree everywhere.
func TestVerifyChecksWhatRan(t *testing.T) {
	src := workload.LayoutFFT(8192, 6, nil)
	router := func(o Options) float64 {
		t.Helper()
		rep, err := Verify("fft.f90", src, o)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Runs[0].CommClassCycles[rt.CommRouter]
	}
	cfg := f90y.DefaultConfig()
	cfg.Distribute = []string{"x=cyclic", "y=cyclic"}
	if asWritten, asRun := router(Options{}), router(Options{Config: &cfg}); asWritten == 0 || asRun <= asWritten {
		t.Errorf("router cycles: %v as written (want > 0), %v under the override (want more)", asWritten, asRun)
	}
}

// TestOracleThirdTarget: a third machine is one value. A 256-node,
// 2-lane CM-5 written here as a Target literal joins the table's two,
// and every machine still agrees with the interpreter bit for bit on
// SWE and the layout trio.
func TestOracleThirdTarget(t *testing.T) {
	m := cm5.Default()
	small := &cm2.Target{
		Name: "cm5-256", Unit: "node",
		Units: 256, Lanes: 2, ClockHz: m.ClockHz,
		Setup:   func(r *peac.Routine) float64 { return m.NodeSetup },
		Subgrid: partition.NodeSubgridSize,
		PECost:  m.VUCost, CommCost: m.CommCost, HostCost: m.HostCost,
	}
	targets := append(slices.Clone(driver.Targets), small)
	for name, src := range map[string]string{
		"swe":       workload.SWE(64, 2),
		"transpose": workload.LayoutTranspose(16, 2, nil),
		"fft":       workload.LayoutFFT(64, 6, nil),
		"gather":    workload.LayoutGather(64, 2, nil),
	} {
		table, err := Verify(name+".f90", src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := Verify(name+".f90", src, Options{Targets: targets})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := rep.Backends; len(got) != 4 || got[3] != small.Name {
			t.Errorf("%s: backends %v, want interp, the table, %s", name, got, small.Name)
		}
		// One comparison per machine: two over three backends, three over four.
		if 2*rep.Elems != 3*table.Elems {
			t.Errorf("%s: %d values compared over four backends, %d over three: want 3/2 as many", name, rep.Elems, table.Elems)
		}
	}
}
