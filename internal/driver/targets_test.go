package driver

import (
	"context"
	"strings"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/workload"
)

// TestTargetResolves: a name (or none) resolves to its table row, and
// -pes is the unit count of whichever machine was named — `-target cm5
// -pes 64` used to run all 1,024 nodes without a word.
func TestTargetResolves(t *testing.T) {
	if m, err := Target("", 0); err != nil || m != Targets[0] {
		t.Errorf(`Target("", 0) = %v, %v: want the table's first row`, m, err)
	}
	for _, row := range Targets {
		if m, err := Target(row.Name, 0); err != nil || m != row {
			t.Errorf("Target(%q, 0) = %v, %v: want the table's row itself", row.Name, m, err)
		}
		full := row.Units
		m, err := Target(row.Name, 64)
		if err != nil || m.Units != 64 || m.Name != row.Name || m.Lanes != row.Lanes {
			t.Fatalf("Target(%q, 64) = %+v, %v", row.Name, m, err)
		}
		if row.Units != full {
			t.Fatalf("%s: resizing wrote through to the table: %d units, was %d", row.Name, row.Units, full)
		}
		// The resize reaches the run: fewer units, larger subgrids, more
		// PE cycles.
		svc := New(1)
		peCycles := func(m *cm2.Target) float64 {
			t.Helper()
			res := svc.Run(context.Background(), Job{
				Name: "swe", File: "swe.f90", Source: workload.SWE(64, 1),
				Config: f90y.DefaultConfig(), Machine: m,
			})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			return res.Result.PECycles
		}
		if small, big := peCycles(m), peCycles(row); small <= big {
			t.Errorf("%s: %v PE cycles on 64 units, %v on %d: want more on fewer", row.Name, small, big, full)
		}
	}
	if _, err := Target("cm9", 0); err == nil || !strings.Contains(err.Error(), TargetNames()) {
		t.Errorf("unknown target: err = %v, want one listing %s", err, TargetNames())
	}
	if _, err := Target("", -1); err == nil {
		t.Error("a negative unit count resolved")
	}
}
