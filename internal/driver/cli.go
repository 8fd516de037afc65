package driver

import (
	"fmt"
	"io"
	"os"
	"strings"

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
			_, err := snap().Write(path, nil)
			return err
		}
	}
	if o.ResumePath != "" {
		if ctl.Resume, err = rt.ReadCheckpoint(o.ResumePath); err != nil {
			return cm2.Control{}, err
		}
	}
	return ctl, nil
}

// ProfileOptions is f90yrun's repeatable -profile DEST: each
// destination renders the one source-line cycle attribution in the
// format its spelling names — "-" the annotated listing on stdout,
// "*.pb.gz" a gzipped pprof protobuf, "*.folded" folded stacks. As a
// flag.Value it refuses any other spelling, so a bad destination is a
// usage error before anything compiles.
type ProfileOptions []string

func (o *ProfileOptions) String() string { return strings.Join(*o, " ") }

func (o *ProfileOptions) Set(dest string) error {
	if _, _, err := profileFormat(dest); err != nil {
		return err
	}
	*o = append(*o, dest)
	return nil
}

// profileFormat resolves a destination to its renderer and the name
// its log line gives a file artifact.
func profileFormat(dest string) (func(*profile.Profile, io.Writer) error, string, error) {
	switch {
	case dest == "-":
		return (*profile.Profile).WriteAnnotated, "", nil
	case strings.HasSuffix(dest, ".pb.gz"):
		return (*profile.Profile).WritePprof, "pprof profile", nil
	case strings.HasSuffix(dest, ".folded"):
		return (*profile.Profile).WriteFolded, "folded-stacks profile", nil
	}
	return nil, "", fmt.Errorf("profile destination %q: want - (annotated listing), *.pb.gz (pprof) or *.folded (folded stacks)", dest)
}

// Emit renders p to every destination in order: the annotated listing
// to w, the files to their paths (each noted on logw). A nil p with
// destinations given is an error — the run produced no attribution to
// profile.
func (o ProfileOptions) Emit(p *profile.Profile, w, logw io.Writer) error {
	if len(o) == 0 {
		return nil
	}
	if p == nil {
		return fmt.Errorf("driver: profile requested but the run produced no cycle attribution")
	}
	for _, dest := range o {
		render, name, err := profileFormat(dest)
		if err != nil {
			return err
		}
		if dest == "-" {
			if err := render(p, w); err != nil {
				return err
			}
			continue
		}
		if err := WriteFile(dest, func(f io.Writer) error { return render(p, f) }); err != nil {
			return err
		}
		fmt.Fprintf(logw, "%s written to %s\n", name, dest)
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
