package driver

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/rt"
)

// specialSrc computes every value class a text checkpoint could not
// carry: a/a with a = 0 is NaN, ±1/a is ±Inf, -1*a is -0.0, and den is
// a denormal. They sit in scalars and in array elements, and the loop
// keeps them live across serial-DO checkpoint boundaries.
const specialSrc = `program special
  double precision :: a, z, pinf, ninf, nz, den
  double precision, dimension(8) :: v, w
  integer :: i
  a = 0.0d0
  z = a / a
  pinf = 1.0d0 / a
  ninf = -1.0d0 / a
  nz = -1.0d0 * a
  den = 1.0d-300
  den = den * 1.0d-10
  v = a / a
  v(2) = pinf
  v(3) = ninf
  v(4) = nz
  v(5) = den
  do i = 1, 3
    w = v + 1.0d0
    v(6) = v(6) + z
  end do
  print *, z, pinf, ninf, nz, den
  print *, v
  print *, w
end program special
`

// storeBits flattens a store to name → IEEE bit patterns, so NaNs
// compare equal to themselves and -0.0 differs from +0.0.
func storeBits(st *rt.Store) map[string][]uint64 {
	out := map[string][]uint64{}
	for name, v := range st.Scalars {
		out[name] = []uint64{math.Float64bits(v)}
	}
	for name, a := range st.Arrays {
		bits := make([]uint64, len(a.Data))
		for i, v := range a.Data {
			bits[i] = math.Float64bits(v)
		}
		out[name] = bits
	}
	return out
}

// TestCheckpointCarriesNaNAndInf is the `f90yrun -checkpoint-every 1`
// reproducer: a store holding NaN used to kill the run at its first
// checkpoint ("json: unsupported value: NaN") although the plain run
// exits 0. Through the same ControlOptions.Build path as the CLI, on
// both targets: checkpoint at every boundary, resume from each one,
// and the final store is bit-identical to the uninterrupted run's.
func TestCheckpointCarriesNaNAndInf(t *testing.T) {
	for _, m := range Targets {
		t.Run(m.Name, func(t *testing.T) {
			svc := New(1)
			run := func(ctl cm2.Control) *cm2.Result {
				t.Helper()
				res := svc.Run(context.Background(), Job{
					Name: "special", File: "special.f90", Source: specialSrc,
					Config: f90y.DefaultConfig(), Machine: m, Ctl: ctl,
				})
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				return res.Result
			}
			clean := run(cm2.Control{})
			want := storeBits(clean.Store)
			classes := map[string]bool{}
			for _, bits := range want {
				for _, b := range bits {
					v := math.Float64frombits(b)
					classes["nan"] = classes["nan"] || math.IsNaN(v)
					classes["+inf"] = classes["+inf"] || math.IsInf(v, 1)
					classes["-inf"] = classes["-inf"] || math.IsInf(v, -1)
					classes["-0"] = classes["-0"] || b == 1<<63
					classes["denormal"] = classes["denormal"] || (v != 0 && math.Abs(v) < 0x1p-1022)
				}
			}
			if len(classes) != 5 {
				t.Fatalf("the program's final store holds only %v; the check is vacuous", classes)
			}

			// The CLI path: every boundary overwrites one file.
			dir := t.TempDir()
			ctl, err := ControlOptions{CheckpointEvery: 1}.Build(filepath.Join(dir, "special.f90"), nil)
			if err != nil {
				t.Fatal(err)
			}
			// Keep each boundary's file as well.
			writeLast, boundaries := ctl.Checkpoint, 0
			ctl.Checkpoint = func(snap func() *rt.Checkpoint) error {
				boundaries++
				ck := snap()
				if _, err := ck.Write(filepath.Join(dir, fmt.Sprintf("b%03d.ckpt", boundaries)), nil); err != nil {
					return err
				}
				return writeLast(func() *rt.Checkpoint { return ck })
			}
			if got := storeBits(run(ctl).Store); !reflect.DeepEqual(got, want) {
				t.Errorf("checkpointing changed the final store:\n got  %x\n want %x", got, want)
			}
			if boundaries < 10 {
				t.Fatalf("only %d checkpoint boundaries", boundaries)
			}

			resumeFrom := func(path string) {
				t.Helper()
				ctl, err := ControlOptions{ResumePath: path}.Build("special.f90", nil)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				res := run(ctl)
				if got := storeBits(res.Store); !reflect.DeepEqual(got, want) {
					t.Errorf("resume from %s: final store differs:\n got  %x\n want %x", filepath.Base(path), got, want)
				}
				if !reflect.DeepEqual(res.Output, clean.Output) || res.PECycles != clean.PECycles || res.HostCycles != clean.HostCycles {
					t.Errorf("resume from %s: output/cycles differ: %q pe %v host %v, want %q pe %v host %v", filepath.Base(path),
						res.Output, res.PECycles, res.HostCycles, clean.Output, clean.PECycles, clean.HostCycles)
				}
			}
			for b := 1; b <= boundaries; b++ {
				resumeFrom(filepath.Join(dir, fmt.Sprintf("b%03d.ckpt", b)))
			}
			// The default path is <file>.ckpt and holds the last boundary.
			resumeFrom(CheckpointPath(filepath.Join(dir, "special.f90"), ""))
		})
	}
}
