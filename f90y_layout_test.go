package f90y

// Tests for the zero-cost-default property of the distribution plane:
// a program carrying explicit all-BLOCK directives (or an all-block
// config override) compiles and runs bit-identically to the
// directive-free program, and the directive-free pipeline never enters
// the hpf phase at all.

import (
	"context"
	"reflect"
	"testing"

	"f90y/internal/obs"
	"f90y/internal/workload"
)

// runIdentity compiles and runs src on the default CM-2 model and
// returns the compilation plus the execution result for comparison.
func runIdentity(t *testing.T, name, src string, cfg Config) (*Compilation, map[string]float64, []float64, float64, float64) {
	t.Helper()
	comp, err := Compile(name, src, cfg)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	res, err := comp.Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	x := res.Store.Arrays["x"]
	if x == nil {
		t.Fatalf("%s: array x missing from store", name)
	}
	return comp, res.CommClassCycles, x.Data, res.PECycles, res.CommCycles
}

// TestAllBlockDistributionBitIdentical pins the acceptance criterion
// that the distribution plane costs nothing until it is used: the FFT
// kernel compiled directive-free, with explicit all-BLOCK source
// directives, and with an all-block Config.Distribute override must
// produce the same PEAC routines, the same cycle totals and per-class
// communication split, and the same result values.
func TestAllBlockDistributionBitIdentical(t *testing.T) {
	plain := workload.LayoutFFT(64, 5, nil)
	directives := workload.LayoutFFT(64, 5, []string{
		"!HPF$ DISTRIBUTE x(BLOCK)",
		"!HPF$ ALIGN y WITH x",
	})

	cfgPlain := DefaultConfig()
	basComp, basClass, basOut, basPE, basComm := runIdentity(t, "plain.f90", plain, cfgPlain)

	cfgOverride := DefaultConfig()
	cfgOverride.Distribute = []string{"x=block", "y=block"}

	variants := []struct {
		name string
		src  string
		cfg  Config
	}{
		{"directives.f90", directives, DefaultConfig()},
		{"override.f90", plain, cfgOverride},
	}
	for _, v := range variants {
		comp, class, out, pe, comm := runIdentity(t, v.name, v.src, v.cfg)

		if got, want := len(comp.Program.Routines), len(basComp.Program.Routines); got != want {
			t.Fatalf("%s: %d routines, directive-free has %d", v.name, got, want)
		}
		for i, r := range comp.Program.Routines {
			if got, want := r.Format(), basComp.Program.Routines[i].Format(); got != want {
				t.Errorf("%s: routine %d differs from directive-free:\n got:\n%s\nwant:\n%s", v.name, i, got, want)
			}
			if !r.Dist.IsDefault() {
				t.Errorf("%s: routine %d carries a non-default distribution %+v", v.name, i, r.Dist)
			}
		}
		if pe != basPE || comm != basComm {
			t.Errorf("%s: cycles (pe=%v comm=%v), directive-free (pe=%v comm=%v)", v.name, pe, comm, basPE, basComm)
		}
		if !reflect.DeepEqual(class, basClass) {
			t.Errorf("%s: comm class split %v, directive-free %v", v.name, class, basClass)
		}
		if !reflect.DeepEqual(out, basOut) {
			t.Errorf("%s: result values differ from directive-free run", v.name)
		}
	}
}

// TestDirectiveFreePipelineSkipsHPFPhase checks the phase gate: a
// directive-free compile emits no hpf span (the phase never runs, so
// swebench -json phase records for existing programs stay identical),
// while a directive-bearing compile emits exactly one.
func TestDirectiveFreePipelineSkipsHPFPhase(t *testing.T) {
	count := func(src string, cfg Config) int {
		col := obs.NewCollector()
		cfg.Obs = col
		if _, err := Compile("hpf.f90", src, cfg); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range col.Spans() {
			if s.Name == "hpf" {
				n++
			}
		}
		return n
	}

	if n := count(workload.LayoutFFT(64, 4, nil), DefaultConfig()); n != 0 {
		t.Errorf("directive-free compile emitted %d hpf spans, want 0", n)
	}
	if n := count(workload.LayoutFFT(64, 4, []string{"!HPF$ DISTRIBUTE x(CYCLIC)"}), DefaultConfig()); n != 1 {
		t.Errorf("directive compile emitted %d hpf spans, want 1", n)
	}
	cfg := DefaultConfig()
	cfg.Distribute = []string{"x=cyclic"}
	if n := count(workload.LayoutFFT(64, 4, nil), cfg); n != 1 {
		t.Errorf("override compile emitted %d hpf spans, want 1", n)
	}
}
