package driver

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"f90y"
	"f90y/internal/workload"
)

// TestRunResultProfileConservesCycles runs a job through the service on
// both targets and checks the profile layer end to end: attribution
// total equals the modeled PE-plus-communication cycle total exactly
// (the profile overlays the network's per-line attribution onto the PE
// attribution), and the ProfileOptions emitter renders all three
// artifacts from it.
func TestRunResultProfileConservesCycles(t *testing.T) {
	svc := New(1)
	src := workload.SWE(32, 2)
	for _, m := range Targets {
		target := m.Name
		res := svc.Run(context.Background(), Job{
			Name: target, File: "swe.f90", Source: src,
			Config: f90y.DefaultConfig(), Machine: m,
		})
		if res.Err != nil {
			t.Fatalf("%s: %v", target, res.Err)
		}
		p := res.Profile()
		if p == nil {
			t.Fatalf("%s: no profile from a successful run", target)
		}
		if got, want := p.Total(), res.Result.PECycles+res.Result.CommCycles; got != want {
			t.Errorf("%s: profile total %v, PECycles+CommCycles %v (attribution must conserve cycles)", target, got, want)
		}

		var text, log bytes.Buffer
		pprofPath := t.TempDir() + "/p.pb.gz"
		foldedPath := t.TempDir() + "/p.folded"
		opts := ProfileOptions{Text: true, Pprof: pprofPath, Folded: foldedPath}
		if err := opts.Emit(p, &text, &log); err != nil {
			t.Fatalf("%s: emit: %v", target, err)
		}
		if !strings.Contains(text.String(), "hot lines:") || !strings.Contains(text.String(), "swe.f90:") {
			t.Errorf("%s: annotated report missing expected sections:\n%s", target, text.String())
		}
		for _, want := range []string{"pprof profile written to", "folded-stacks profile written to"} {
			if !strings.Contains(log.String(), want) {
				t.Errorf("%s: log missing %q: %s", target, want, log.String())
			}
		}
	}

	// No outputs requested: Emit is a no-op even with a nil profile.
	if err := (ProfileOptions{}).Emit(nil, nil, nil); err != nil {
		t.Errorf("empty options must be a no-op, got %v", err)
	}
	// Outputs requested but no attribution: a hard error, not silence.
	if err := (ProfileOptions{Text: true}).Emit(nil, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("profile requested with no attribution must error")
	}
}
