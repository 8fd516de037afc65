package driver

import (
	"fmt"
	"io"
	"os"

	"f90y/internal/cm2"
	"f90y/internal/faults"
	"f90y/internal/obs"
	"f90y/internal/obs/profile"
	"f90y/internal/rt"
)

// FaultsHelp is the one -faults usage string shared by f90yrun and
// swebench, so the documented key list cannot drift between
// commands (see internal/faults.ParseSpec for semantics).
const FaultsHelp = "fault-injection spec, e.g. seed=7,pe=0.01,drop=0.001,fatal=200 " +
	"(keys: seed, pe, drop, corrupt, delay, stall, retries, backoff, backoff-cap, " +
	"stall-cycles, delay-cycles, degrade, kill=PE@T, fatal=T)"

// CheckpointPath resolves the snapshot path for a run of file: the
// explicit -checkpoint value when given, else <file>.ckpt.
func CheckpointPath(file, explicit string) string {
	if explicit != "" {
		return explicit
	}
	return file + ".ckpt"
}

// ControlOptions bundles the control-plane CLI flags shared by the
// commands: the fault spec, the checkpoint/resume paths, and the
// runtime guardrails (cycle budget, numeric-exception plane).
type ControlOptions struct {
	Faults          string  // -faults spec ("" = no injection)
	CheckpointEvery int     // -checkpoint-every (0 = off)
	CheckpointPath  string  // -checkpoint ("" = derive from file)
	ResumePath      string  // -resume ("" = fresh run)
	MaxCycles       float64 // -max-cycles watchdog budget (0 = off)
	Numeric         string  // -numeric off|trap|record ("" = off)
}

// Build assembles the execution control plane for a run of file,
// reporting injection telemetry to rec; with nothing requested it is
// the zero Control.
func (o ControlOptions) Build(file string, rec obs.Recorder) (cm2.Control, error) {
	plan, err := faults.ParseSpec(o.Faults)
	if err != nil {
		return cm2.Control{}, err
	}
	numMode, err := rt.ParseNumericMode(o.Numeric)
	if err != nil {
		return cm2.Control{}, err
	}
	ctl := cm2.Control{
		Faults:    faults.New(plan, rec),
		MaxCycles: o.MaxCycles,
		Numeric:   rt.NewNumeric(numMode),
	}
	if every := o.CheckpointEvery; every > 0 {
		// An explicit count is a request, not a policy: the file is
		// rewritten at exactly every N-th boundary of the run.
		path, boundaries := CheckpointPath(file, o.CheckpointPath), 0
		ctl.Checkpoint = func(snap func() *rt.Checkpoint) error {
			if boundaries++; boundaries%every != 0 {
				return nil
			}
			return snap().Write(path)
		}
	}
	if o.ResumePath != "" {
		if ctl.Resume, err = rt.ReadCheckpoint(o.ResumePath); err != nil {
			return cm2.Control{}, err
		}
	}
	return ctl, nil
}

// ProfileOptions bundles f90yrun's -profile* flags: the text hot-line
// report and the two file artifacts built from the same source-line
// cycle attribution.
type ProfileOptions struct {
	Text   bool   // -profile: annotated source listing
	Pprof  string // -profile-pprof: gzipped pprof protobuf path ("" = off)
	Folded string // -profile-folded: folded-stacks path ("" = off)
}

// Any reports whether any profile output is requested.
func (o ProfileOptions) Any() bool {
	return o.Text || o.Pprof != "" || o.Folded != ""
}

// Emit renders the requested artifacts from p: the annotated listing to
// w, the pprof and folded files to their paths (each noted on logw). A
// nil p with outputs requested is an error — the run produced no
// attribution to profile.
func (o ProfileOptions) Emit(p *profile.Profile, w, logw io.Writer) error {
	if !o.Any() {
		return nil
	}
	if p == nil {
		return fmt.Errorf("driver: profile requested but the run produced no cycle attribution")
	}
	if o.Text {
		if err := p.WriteAnnotated(w); err != nil {
			return err
		}
	}
	if o.Pprof != "" {
		if err := WriteFile(o.Pprof, p.WritePprof); err != nil {
			return err
		}
		fmt.Fprintf(logw, "pprof profile written to %s\n", o.Pprof)
	}
	if o.Folded != "" {
		if err := WriteFile(o.Folded, p.WriteFolded); err != nil {
			return err
		}
		fmt.Fprintf(logw, "folded-stacks profile written to %s\n", o.Folded)
	}
	return nil
}

// WriteFile creates path and renders an artifact (a profile, a trace)
// into it, reporting the first of the render and close errors.
func WriteFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
