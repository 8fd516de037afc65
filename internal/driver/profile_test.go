package driver

import (
	"bytes"
	"context"
	"flag"
	"io"
	"slices"
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
		opts := ProfileOptions{"-", pprofPath, foldedPath}
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
	if err := (ProfileOptions{"-"}).Emit(nil, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("profile requested with no attribution must error")
	}
}

// TestProfileDestinations holds -profile's one spelling rule: "-" is
// the annotated listing, the suffix names a file's format, and any
// other destination is refused when the flag is parsed — a usage error
// (exit 2) before anything compiles.
func TestProfileDestinations(t *testing.T) {
	var opts ProfileOptions
	fs := flag.NewFlagSet("f90yrun", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Var(&opts, "profile", "")
	if err := fs.Parse([]string{"-profile", "-", "-profile", "p.pb.gz", "-profile", "p.folded"}); err != nil {
		t.Fatal(err)
	}
	if want := (ProfileOptions{"-", "p.pb.gz", "p.folded"}); !slices.Equal(opts, want) {
		t.Errorf("parsed %q, want %q", opts, want)
	}
	for _, bad := range []string{"p.pprof", "p.pb", "profile.txt", ""} {
		if err := fs.Parse([]string{"-profile", bad}); err == nil {
			t.Errorf("-profile %q accepted; want a usage error", bad)
		}
	}

	// "-" selects the annotated listing, written to stdout and logged
	// nowhere.
	res := New(1).Run(context.Background(), Job{File: "swe.f90", Source: workload.SWE(16, 1), Config: f90y.DefaultConfig()})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var out, log bytes.Buffer
	if err := (ProfileOptions{"-"}).Emit(res.Profile(), &out, &log); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.Profile().WriteAnnotated(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) || log.Len() != 0 {
		t.Errorf("-profile - wrote %d bytes (annotated listing is %d) and logged %q", out.Len(), want.Len(), log.String())
	}
}
