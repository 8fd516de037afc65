package source

import (
	"strings"
	"testing"
)

func TestPosFormatting(t *testing.T) {
	if got := (Pos{File: "a.f90", Line: 3, Col: 7}).String(); got != "a.f90:3:7" {
		t.Errorf("got %q", got)
	}
	if got := (Pos{Line: 2, Col: 1}).String(); got != "2:1" {
		t.Errorf("got %q", got)
	}
	if got := (Pos{}).String(); got != "<unknown>" {
		t.Errorf("got %q", got)
	}
	if got := (Pos{File: "<distribute>"}).String(); got != "<distribute>" {
		t.Errorf("got %q", got)
	}
	if (Pos{}).IsValid() || !(Pos{Line: 1, Col: 1}).IsValid() {
		t.Error("IsValid wrong")
	}
}

func TestReporterAccumulatesAndSorts(t *testing.T) {
	var r Reporter
	r.Errorf("parse", Pos{File: "x", Line: 9, Col: 1}, "late error")
	r.Warnf("parse", Pos{File: "x", Line: 2, Col: 5}, "early warning")
	r.Errorf("lower", Pos{File: "x", Line: 2, Col: 1}, "earlier error")

	if !r.HasErrors() {
		t.Fatal("errors not recorded")
	}
	d := r.Diagnostics()
	if len(d) != 3 {
		t.Fatalf("diags = %d", len(d))
	}
	if d[0].Msg != "earlier error" || d[2].Msg != "late error" {
		t.Fatalf("order: %v", d)
	}

	err := r.Err()
	if err == nil {
		t.Fatal("Err nil")
	}
	// Warnings are excluded from the error summary.
	if strings.Contains(err.Error(), "warning") {
		t.Errorf("warnings leaked into error: %v", err)
	}
	if !strings.Contains(err.Error(), "x:2:1") || !strings.Contains(err.Error(), "x:9:1") {
		t.Errorf("positions missing: %v", err)
	}
}

func TestReporterNoErrors(t *testing.T) {
	var r Reporter
	r.Warnf("parse", Pos{Line: 1, Col: 1}, "only a warning")
	if r.HasErrors() || r.Err() != nil {
		t.Fatal("warnings must not produce an error")
	}
}

func TestSeverityString(t *testing.T) {
	if Warn.String() != "warning" || Err.String() != "error" {
		t.Fatal("severity names")
	}
}
