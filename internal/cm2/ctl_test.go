package cm2_test

// The control-plane suite, run over every target through the one run
// core (cm2.Target.Run). External test package: cm5 imports cm2.

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"f90y/internal/cm2"
	"f90y/internal/cm5"
	"f90y/internal/faults"
	"f90y/internal/fe"
	"f90y/internal/lower"
	"f90y/internal/obs"
	"f90y/internal/opt"
	"f90y/internal/parser"
	"f90y/internal/partition"
	"f90y/internal/pe"
	"f90y/internal/rt"
	"f90y/internal/workload"
)

// ctlProg is the control-plane test workload: a top-level serial DO
// driving node computation and communication, so checkpoints land both
// at op boundaries and inside the loop.
const ctlProg = `program t
real a(64), b(64), c(64)
real s
integer i
a = 1.0
b = 0.0
do i = 1, 16
  b = a*2.0 + b
  c = cshift(b, 1)
  a = c + 0.5
end do
s = sum(a)
print *, 'sum =', s
end program t
`

func compileSrc(t *testing.T, file, src string) *fe.Program {
	t.Helper()
	tree, err := parser.Parse(file, src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lower.Lower(tree)
	if err != nil {
		t.Fatal(err)
	}
	omod, _ := opt.Optimize(mod, opt.Default)
	prog, _, err := partition.Compile(omod, pe.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func compileCtl(t *testing.T) *fe.Program { return compileSrc(t, "t.f90", ctlProg) }

// liveViewProg is straight-line: its shifts and the routines that read
// them are all top-level ops, so checkpoint boundaries fall between a
// shift into a view (partition marks all three temporaries) and its
// reader — snapshots that carry a live view, one of them of a chain.
const liveViewProg = `program t
real a(64), b(64), c(64)
real s
forall (i=1:64) a(i) = i
b = cshift(a, 3) + a
c = cshift(cshift(b, 1), -2)*2.0 + b
s = sum(c)
print *, 'sum =', s
end program t
`

// outcome is everything one run through the core reports.
type outcome struct{ *cm2.Result }

// eachTarget runs f as one subtest per machine model.
func eachTarget(t *testing.T, f func(t *testing.T, tg *cm2.Target)) {
	for _, tg := range []*cm2.Target{cm2.Default().Target(), cm5.Default().Target()} {
		t.Run(tg.Name, func(t *testing.T) { f(t, tg) })
	}
}

func run(tg *cm2.Target, prog *fe.Program, ctl *cm2.Control) (outcome, error) {
	res, err := tg.Run(context.Background(), prog, nil, nil, ctl)
	return outcome{res}, err
}

func mustRun(t *testing.T, tg *cm2.Target, prog *fe.Program, ctl *cm2.Control) outcome {
	t.Helper()
	out, err := run(tg, prog, ctl)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkpointing returns a Control that snapshots every n boundaries and
// the slice the snapshots land in.
func checkpointing(n int, ctl cm2.Control) (*cm2.Control, *[]*rt.Checkpoint) {
	var cks []*rt.Checkpoint
	boundaries := 0
	ctl.Checkpoint = func(snap func() *rt.Checkpoint) error {
		if boundaries++; boundaries%n == 0 {
			cks = append(cks, snap())
		}
		return nil
	}
	return &ctl, &cks
}

// sameResult asserts two outcomes agree bit-for-bit on every
// observable: output, totals, the node split, attribution maps, and
// the stored data.
func sameResult(t *testing.T, what string, a, b outcome) {
	t.Helper()
	if !reflect.DeepEqual(a.Output, b.Output) {
		t.Errorf("%s: output differs: %q vs %q", what, a.Output, b.Output)
	}
	if a.HostCycles != b.HostCycles || a.PECycles != b.PECycles || a.CommCycles != b.CommCycles {
		t.Errorf("%s: cycles differ: host %v/%v pe %v/%v comm %v/%v", what,
			a.HostCycles, b.HostCycles, a.PECycles, b.PECycles, a.CommCycles, b.CommCycles)
	}
	if a.Split != b.Split {
		t.Errorf("%s: node split differs: %+v vs %+v", what, a.Split, b.Split)
	}
	if a.Flops != b.Flops || a.NodeCalls != b.NodeCalls || a.CommCalls != b.CommCalls {
		t.Errorf("%s: counters differ", what)
	}
	for name, m := range map[string][2]any{
		"pe-class":   {a.PEClassCycles, b.PEClassCycles},
		"pe-routine": {a.PERoutineCycles, b.PERoutineCycles},
		"pe-line":    {a.PELineCycles, b.PELineCycles},
		"comm-class": {a.CommClassCycles, b.CommClassCycles},
		"comm-line":  {a.CommLineCycles, b.CommLineCycles},
		"host-class": {a.HostClassCycles, b.HostClassCycles},
	} {
		if !reflect.DeepEqual(m[0], m[1]) {
			t.Errorf("%s: %s map differs: %v vs %v", what, name, m[0], m[1])
		}
	}
	sameStore(t, what, a.Store, b.Store)
}

func sameStore(t *testing.T, what string, a, b *rt.Store) {
	t.Helper()
	for name, arr := range a.Arrays {
		// A shift temporary marked as a view is not program state once
		// its last reader has run (a copy on an armed run, a view of a
		// since-overwritten source otherwise); skipped by the flag.
		if arr.ShiftView {
			continue
		}
		if !reflect.DeepEqual(arr.Data, b.Arrays[name].Data) {
			t.Errorf("%s: array %q differs", what, name)
		}
	}
	if !reflect.DeepEqual(a.Scalars, b.Scalars) {
		t.Errorf("%s: scalars differ", what)
	}
}

// conserves asserts every PE attribution map sums exactly to PECycles.
func conserves(t *testing.T, what string, out outcome) {
	t.Helper()
	sum := func(m map[string]float64) (s float64) {
		for _, v := range m {
			s += v
		}
		return s
	}
	lines := 0.0
	for _, v := range out.PELineCycles {
		lines += v
	}
	if c, r := sum(out.PEClassCycles), sum(out.PERoutineCycles); c != out.PECycles || r != out.PECycles || lines != out.PECycles {
		t.Errorf("%s: attribution does not conserve: classes %v, routines %v, lines %v, PECycles %v",
			what, c, r, lines, out.PECycles)
	}
	if s := out.Split; s.Setup+s.Vector+s.Degrade != out.PECycles {
		t.Errorf("%s: node split %+v does not sum to PECycles %v", what, s, out.PECycles)
	}
}

// TestRunCtlNilZeroOverhead is the zero-overhead invariant: attaching
// no control plane must leave every cycle total, the node split,
// every attribution map, and the result bit-identical to an empty one.
func TestRunCtlNilZeroOverhead(t *testing.T) {
	prog := compileCtl(t)
	eachTarget(t, func(t *testing.T, tg *cm2.Target) {
		plain := mustRun(t, tg, prog, nil)
		if plain.Faults != nil || plain.Split.Degrade != 0 {
			t.Error("nil ctl must not attach fault stats or charge degrade cycles")
		}
		// An empty Control (no injector, no checkpoints) is also exact.
		sameResult(t, "empty-ctl", plain, mustRun(t, tg, prog, &cm2.Control{}))
		conserves(t, "plain", plain)
	})
}

// TestFaultDeterminism: the same fault plan produces the same injected
// sequence, event log, retry counts, and cycle totals on every run.
func TestFaultDeterminism(t *testing.T) {
	prog := compileCtl(t)
	plan := &faults.Plan{Seed: 99, Drop: 0.05, Corrupt: 0.05, Delay: 0.05, Stall: 0.02, PEKill: 0.05}
	eachTarget(t, func(t *testing.T, tg *cm2.Target) {
		inj1, inj2 := faults.New(plan, nil), faults.New(plan, nil)
		res1 := mustRun(t, tg, prog, &cm2.Control{Faults: inj1})
		res2 := mustRun(t, tg, prog, &cm2.Control{Faults: inj2})

		sameResult(t, "deterministic", res1, res2)
		if !reflect.DeepEqual(inj1.Log(), inj2.Log()) {
			t.Errorf("fault logs differ:\n%v\n%v", inj1.Log(), inj2.Log())
		}
		if !reflect.DeepEqual(inj1.Stats(), inj2.Stats()) {
			t.Errorf("fault stats differ: %+v vs %+v", inj1.Stats(), inj2.Stats())
		}
		total := int64(0)
		for _, n := range inj1.Stats().Injected {
			total += n
		}
		if total == 0 {
			t.Fatal("plan injected nothing; the determinism check is vacuous")
		}
	})
}

// TestFaultedRunStaysExact: injected drops/corruptions/delays are all
// recovered by the runtime, so the stored results match a clean run
// exactly even though the cycle totals grow.
func TestFaultedRunStaysExact(t *testing.T) {
	prog := compileCtl(t)
	eachTarget(t, func(t *testing.T, tg *cm2.Target) {
		clean := mustRun(t, tg, prog, nil)
		inj := faults.New(&faults.Plan{Seed: 7, Drop: 0.1, Corrupt: 0.1, Delay: 0.1}, nil)
		faulted := mustRun(t, tg, prog, &cm2.Control{Faults: inj})
		sameStore(t, "recovered faults", clean.Store, faulted.Store)
		if !reflect.DeepEqual(clean.Output, faulted.Output) {
			t.Errorf("output differs: %q vs %q", clean.Output, faulted.Output)
		}
		if inj.Stats().Retries == 0 {
			t.Fatal("no retries happened; exactness check is vacuous")
		}
		if faulted.CommCycles <= clean.CommCycles {
			t.Errorf("retries charged nothing: %v <= %v", faulted.CommCycles, clean.CommCycles)
		}
	})
}

// TestCheckpointResumeAfterFatal is the acceptance scenario: a run
// killed by an injected fatal fault resumes from its last checkpoint
// and finishes with the same store, output, totals, and node split as
// a run that never faulted.
func TestCheckpointResumeAfterFatal(t *testing.T) {
	prog := compileCtl(t)
	eachTarget(t, func(t *testing.T, tg *cm2.Target) {
		clean := mustRun(t, tg, prog, nil)

		inj := faults.New(&faults.Plan{Seed: 1, Events: []faults.Event{{At: 40, Kind: faults.FatalStop}}}, nil)
		ctl, cks := checkpointing(3, cm2.Control{Faults: inj})
		if _, err := run(tg, prog, ctl); !errors.Is(err, faults.ErrFatal) {
			t.Fatalf("run survived the fatal fault: %v", err)
		}
		if len(*cks) == 0 {
			t.Fatal("no checkpoint was written before the fatal fault")
		}
		last := (*cks)[len(*cks)-1]
		if last.Machine != tg.Name || last.Schema != rt.CkptSchema {
			t.Fatalf("checkpoint header: %q %q", last.Machine, last.Schema)
		}
		if _, ok := last.Extra["vu-cycles"]; !ok {
			t.Fatalf("snapshot lacks the node split: %v", last.Extra)
		}
		sameResult(t, "resumed", clean, mustRun(t, tg, prog, &cm2.Control{Resume: last}))
	})
}

// TestResumeAtEveryBoundaryConserves: a snapshot taken at ANY host
// boundary resumes to the uninterrupted run's exact outcome, and the
// per-class, per-routine and per-line maps each still sum exactly to
// PECycles — no boundary loses or double-counts a cycle. Over the
// looping control-plane workload and over liveViewProg, whose snapshots
// carry live shift views; the snapshots are taken under one evaluator
// and resumed under each.
func TestResumeAtEveryBoundaryConserves(t *testing.T) {
	defer func() { cm2.TestOnlyEngine = cm2.EngineTranslated }()
	engines := []cm2.Engine{cm2.EngineTranslated, cm2.EngineReference}
	eachTarget(t, func(t *testing.T, tg *cm2.Target) {
		for _, p := range []struct {
			name, src  string
			boundaries int // at least this many
			liveViews  bool
		}{
			{"loop", ctlProg, 16, false},
			{"live views", liveViewProg, 6, true},
		} {
			t.Run(p.name, func(t *testing.T) {
				prog := compileSrc(t, "t.f90", p.src)
				for _, taken := range engines {
					cm2.TestOnlyEngine = taken
					ctl, cks := checkpointing(1, cm2.Control{})
					clean := mustRun(t, tg, prog, ctl)
					conserves(t, "uninterrupted", clean)
					if len(*cks) < p.boundaries {
						t.Fatalf("only %d boundaries checkpointed; want at least %d", len(*cks), p.boundaries)
					}
					views := 0
					for i, ck := range *cks {
						for _, a := range ck.Arrays {
							if a.ViewOf != "" {
								views++
							}
						}
						for _, resumedBy := range engines {
							cm2.TestOnlyEngine = resumedBy
							resumed := mustRun(t, tg, prog, &cm2.Control{Resume: ck})
							sameResult(t, "resumed", clean, resumed)
							conserves(t, "resumed", resumed)
							if t.Failed() {
								t.Fatalf("boundary %d (next op %d, in loop %v, iter %d), engines %d -> %d",
									i, ck.NextOp, ck.InLoop, ck.IterDone, taken, resumedBy)
							}
						}
					}
					if p.liveViews && views == 0 {
						t.Fatal("no snapshot carried a view record; the live-view resume is vacuous")
					}
				}
			})
		}
	})
}

// TestResumeAcrossEngineSwitch: which evaluator ran a routine, and
// whether this process has translated it yet, is process state, not the
// snapshot's. So snapshots taken by a run under the reference evaluator
// resume under the translated form on either side of a routine's first
// dispatch: in a new process every routine is untranslated and decodes
// on its first dispatch after the resume point; in a process that ran
// the program before, the resume finds every memo. Both must reproduce
// the uninterrupted run exactly, at every boundary.
func TestResumeAcrossEngineSwitch(t *testing.T) {
	eachTarget(t, func(t *testing.T, tg *cm2.Target) {
		clean := mustRun(t, tg, compileCtl(t), nil)

		ctl, cks := checkpointing(1, cm2.Control{})
		cm2.TestOnlyEngine = cm2.EngineReference
		ref, err := run(tg, compileCtl(t), ctl)
		cm2.TestOnlyEngine = cm2.EngineTranslated
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "reference evaluator", clean, ref)
		if len(*cks) < 16 {
			t.Fatalf("only %d boundaries checkpointed; want one per loop iteration at least", len(*cks))
		}

		warm := compileCtl(t)
		mustRun(t, tg, warm, nil)
		for i, ck := range *cks {
			sameResult(t, "resumed in a new process", clean, mustRun(t, tg, compileCtl(t), &cm2.Control{Resume: ck}))
			sameResult(t, "resumed over translated routines", clean, mustRun(t, tg, warm, &cm2.Control{Resume: ck}))
			if t.Failed() {
				t.Fatalf("boundary %d (next op %d, in loop %v, iter %d)", i, ck.NextOp, ck.InLoop, ck.IterDone)
			}
		}
	})
}

// TestResumeRejectsOtherMachine: a snapshot's cycle buckets price the
// machine that took it, so the other machine refuses it with
// rt.ErrCkptMachine before touching the store.
func TestResumeRejectsOtherMachine(t *testing.T) {
	prog := compileCtl(t)
	c2, c5 := cm2.Default().Target(), cm5.Default().Target()
	for _, dir := range [][2]*cm2.Target{{c2, c5}, {c5, c2}} {
		from, to := dir[0], dir[1]
		t.Run(from.Name+"-to-"+to.Name, func(t *testing.T) {
			ctl, cks := checkpointing(5, cm2.Control{})
			mustRun(t, from, prog, ctl)
			ck := (*cks)[0]

			store := rt.NewStore(prog.Syms)
			for i := range store.Arrays["a"].Data {
				store.Arrays["a"].Data[i] = -7
			}
			before := store.Checkpoint()
			_, err := to.Run(context.Background(), prog, store, nil, &cm2.Control{Resume: ck})
			if !errors.Is(err, rt.ErrCkptMachine) {
				t.Fatalf("want rt.ErrCkptMachine, got %v", err)
			}
			for _, want := range []string{to.Name + ": resume:", `"` + from.Name + `"`} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q lacks %q", err, want)
				}
			}
			if after := store.Checkpoint(); !reflect.DeepEqual(before, after) {
				t.Error("rejected resume modified the store")
			}
		})
	}
}

// TestParentCheckpointsResume pins cross-version resume: the two
// snapshots under testdata/ were written by the commit BEFORE the run
// core existed (f90yrun -faults kill=3@2,fatal=16 -checkpoint-every 2
// on golden.f90, so degrade cycles are in flight and the cm5 file
// carries them in Extra only), and the wanted values are what that
// commit's f90yrun -faults kill=3@2 -resume reported.
func TestParentCheckpointsResume(t *testing.T) {
	src, err := os.ReadFile("testdata/golden.f90")
	if err != nil {
		t.Fatal(err)
	}
	prog := compileSrc(t, "golden.f90", string(src))
	type golden struct {
		pe, comm, host float64
		flops          int64
		split          cm2.Split
		classes        map[string]float64
	}
	want := map[string]golden{
		"cm2": {pe: 2012, comm: 1768, host: 2426, flops: 6144,
			classes: map[string]float64{"degrade": 1447, "load-store": 228, "loop": 13, "sqrt": 252, "vector-arith": 72}},
		"cm5": {pe: 3312, comm: 767, host: 2426, flops: 24576,
			split: cm2.Split{Setup: 1144, Vector: 393, Degrade: 1775},
			classes: map[string]float64{"degrade": 1775, "load-store": 152, "loop": 13, "sparc-issue": 1144,
				"sqrt": 180, "vector-arith": 48}},
	}
	eachTarget(t, func(t *testing.T, tg *cm2.Target) {
		ck, err := rt.ReadCheckpoint("testdata/parent_" + tg.Name + ".ckpt")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := faults.ParseSpec("kill=3@2")
		if err != nil {
			t.Fatal(err)
		}
		out := mustRun(t, tg, prog, &cm2.Control{Resume: ck, Faults: faults.New(plan, nil)})
		w := want[tg.Name]
		if out.PECycles != w.pe || out.CommCycles != w.comm || out.HostCycles != w.host || out.Flops != w.flops {
			t.Errorf("cycles: pe %v, comm %v, host %v | flops %d; want %v, %v, %v | %d",
				out.PECycles, out.CommCycles, out.HostCycles, out.Flops, w.pe, w.comm, w.host, w.flops)
		}
		if !reflect.DeepEqual(out.PEClassCycles, w.classes) {
			t.Errorf("class map %v, want %v", out.PEClassCycles, w.classes)
		}
		// The parent's cm2 snapshots carry no split (Extra is absent),
		// and cm2.Machine exposes none; only the cm5 one is pinned.
		if tg.Setup != nil && out.Split != w.split {
			t.Errorf("node split %+v, want %+v", out.Split, w.split)
		}
		if want := []string{"sum = 467.3776408148478"}; !reflect.DeepEqual(out.Output, want) {
			t.Errorf("output %q, want %q", out.Output, want)
		}
		// The parent gave the shift temporary tmp0 memory and the files
		// carry its payload; without an injector this build makes tmp0 a
		// view. Resuming that way reaches the same values.
		healthy := mustRun(t, tg, prog, &cm2.Control{Resume: ck})
		if !reflect.DeepEqual(healthy.Output, out.Output) {
			t.Errorf("healthy resume printed %q, armed %q", healthy.Output, out.Output)
		}
		sameStore(t, "healthy resume of a parent snapshot", healthy.Store, out.Store)
		if !healthy.Store.Arrays["tmp0"].ShiftView || out.Store.Arrays["tmp0"].Data == nil {
			t.Error("tmp0 is not a marked temporary that the parent's payload restored")
		}
	})
}

// TestCheckpointRoundTripsThroughDisk: Write/ReadCheckpoint preserve
// the snapshot bit-for-bit (store values travel as raw IEEE-754 bits;
// the header's cycle buckets through JSON's exact float64 round trip).
func TestCheckpointRoundTripsThroughDisk(t *testing.T) {
	prog := compileCtl(t)
	eachTarget(t, func(t *testing.T, tg *cm2.Target) {
		ctl, cks := checkpointing(5, cm2.Control{})
		mustRun(t, tg, prog, ctl)
		last := (*cks)[len(*cks)-1]
		path := t.TempDir() + "/ck.ckpt"
		if err := last.Write(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := rt.ReadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(last, loaded) {
			t.Error("checkpoint changed across the disk round trip")
		}
	})
}

// TestShiftByDoIndex: a shift amount or boundary naming the index of
// an enclosing serial DO — one loop up, and two — resolves against the
// host VM's loop frames before the communication layer evaluates it
// (both machines used to die with "local_under outside iteration").
// The wanted lines are the reference interpreter's.
func TestShiftByDoIndex(t *testing.T) {
	prog := compileSrc(t, "doshift.f90", workload.DoShift(8))
	eachTarget(t, func(t *testing.T, tg *cm2.Target) {
		out := mustRun(t, tg, prog, nil)
		if want := []string{"b 1508", "c 1617"}; !reflect.DeepEqual(out.Output, want) {
			t.Errorf("output %q, want %q", out.Output, want)
		}
	})
}

// TestPEKillDegradesOrAborts: a scheduled unit kill either degrades
// gracefully (documented cycle penalty in the "degrade" class and the
// split's Degrade bucket, values exact) or, with degradation disabled,
// fails cleanly with the sentinel pair.
func TestPEKillDegradesOrAborts(t *testing.T) {
	prog := compileCtl(t)
	eachTarget(t, func(t *testing.T, tg *cm2.Target) {
		clean := mustRun(t, tg, prog, nil)

		kill := []faults.Event{{At: 2, Kind: faults.KillPE, PE: 5}}
		degraded := mustRun(t, tg, prog, &cm2.Control{Faults: faults.New(&faults.Plan{Seed: 1, Events: kill}, nil)})
		if degraded.Faults.Degraded != 1 || len(degraded.Faults.DeadPEs) != 1 {
			t.Fatalf("stats: %+v", degraded.Faults)
		}
		if d := degraded.PEClassCycles[cm2.DegradeClass]; d <= 0 || d != degraded.Split.Degrade {
			t.Errorf("degrade class %v, split %+v: want equal and positive", d, degraded.Split)
		}
		if degraded.PECycles <= clean.PECycles {
			t.Errorf("degradation charged nothing: %v <= %v", degraded.PECycles, clean.PECycles)
		}
		if s := degraded.Split; degraded.PECycles != s.Vector+s.Setup+s.Degrade {
			t.Errorf("node split does not sum: %v != %+v", degraded.PECycles, s)
		}
		sameStore(t, "degradation", clean.Store, degraded.Store)

		inj := faults.New(&faults.Plan{Seed: 1, Events: kill, NoDegrade: true}, nil)
		_, err := run(tg, prog, &cm2.Control{Faults: inj})
		if !errors.Is(err, faults.ErrPEDead) || !errors.Is(err, cm2.ErrDispatch) {
			t.Fatalf("error %v must wrap both faults.ErrPEDead and cm2.ErrDispatch", err)
		}
		if want := tg.Name + ": dispatch of "; !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), tg.Unit+" 5") {
			t.Errorf("error %q: want prefix %q and %q", err, want, tg.Unit+" 5")
		}
	})
}

// TestBudgetKillsRunawayLoop: the cycle watchdog terminates an
// intentionally infinite loop with rt.ErrBudget, at the same host step
// with the same message on every run — a deterministic kill, not a
// wall-clock timeout.
func TestBudgetKillsRunawayLoop(t *testing.T) {
	prog := compileSrc(t, "t.f90", `program loop
integer i
i = 0
do while (i < 1)
  i = i * 1
end do
end program loop
`)
	eachTarget(t, func(t *testing.T, tg *cm2.Target) {
		_, err1 := run(tg, prog, &cm2.Control{MaxCycles: 100_000})
		if !errors.Is(err1, rt.ErrBudget) {
			t.Fatalf("want rt.ErrBudget, got %v", err1)
		}
		_, err2 := run(tg, prog, &cm2.Control{MaxCycles: 100_000})
		if err1.Error() != err2.Error() {
			t.Errorf("budget kill not deterministic:\n  %v\n  %v", err1, err2)
		}
	})
}

// TestBudgetResumeMatchesUnbudgeted: a run killed mid-flight by the
// watchdog (whose budget counts node and communication cycles through
// the core's ExtraCycles hook) resumes from its last checkpoint under
// a higher budget and finishes bit-identical to a run that never had a
// budget.
func TestBudgetResumeMatchesUnbudgeted(t *testing.T) {
	prog := compileCtl(t)
	eachTarget(t, func(t *testing.T, tg *cm2.Target) {
		clean := mustRun(t, tg, prog, nil)

		ctl, cks := checkpointing(3, cm2.Control{MaxCycles: clean.TotalCycles() / 2})
		if _, err := run(tg, prog, ctl); !errors.Is(err, rt.ErrBudget) {
			t.Fatalf("half-budget run survived: %v", err)
		}
		if len(*cks) == 0 {
			t.Fatal("no checkpoint before the budget kill")
		}
		last := (*cks)[len(*cks)-1]
		// The kill must come from node+comm time, not host time alone,
		// or the ExtraCycles hook is untested on this target.
		if last.HostCycles >= clean.TotalCycles()/2 {
			t.Fatalf("host cycles alone (%v) exceed the budget; the check is vacuous", last.HostCycles)
		}
		resumed := mustRun(t, tg, prog, &cm2.Control{Resume: last, MaxCycles: clean.TotalCycles() * 2})
		sameResult(t, "budget-resumed", clean, resumed)
	})
}

// divProg produces +Inf on every lane of c: a is nonzero, b stays 0.0,
// and c = a/b runs through FDIVV.
const divProg = `program d
real a(64), b(64), c(64)
a = 1.0
b = 0.0
c = a / b
end program d
`

// TestNumericTrap: in trap mode the first NaN/Inf-producing PE float op
// fails the run with rt.ErrNumeric, attributing the instruction and
// the processing element.
func TestNumericTrap(t *testing.T) {
	prog := compileSrc(t, "t.f90", divProg)
	eachTarget(t, func(t *testing.T, tg *cm2.Target) {
		_, err := run(tg, prog, &cm2.Control{Numeric: rt.NewNumeric(rt.NumericTrap)})
		if !errors.Is(err, rt.ErrNumeric) {
			t.Fatalf("want rt.ErrNumeric, got %v", err)
		}
		for _, want := range []string{"fdivv", "inf", "processing element"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("trap error lacks %q: %v", want, err)
			}
		}
	})
}

// TestNumericRecord: record mode tallies exceptional lanes per cycle
// class, completes the run, and leaves the results bit-identical to an
// uninstrumented run.
func TestNumericRecord(t *testing.T) {
	prog := compileSrc(t, "t.f90", divProg)
	eachTarget(t, func(t *testing.T, tg *cm2.Target) {
		plain := mustRun(t, tg, prog, nil)
		num := rt.NewNumeric(rt.NumericRecord)
		res := mustRun(t, tg, prog, &cm2.Control{Numeric: num})
		if num.Inf["divide"] != 64 {
			t.Errorf("Inf[divide] = %d, want 64 (one per lane)", num.Inf["divide"])
		}
		if num.Total() != 64 {
			t.Errorf("Total() = %d, want 64", num.Total())
		}
		if res.Numeric != num {
			t.Error("result does not carry the numeric plane")
		}
		sameResult(t, "numeric-record", plain, res)
	})
}

// TestTargetsReportSameSeries: one emit and one dispatch serve every
// target, so a cm2 and a cm5 run of the same program report the same
// counter and histogram series; the cm5 adds exactly its node split.
func TestTargetsReportSameSeries(t *testing.T) {
	series := func(tg *cm2.Target) (counters, hists map[string]bool) {
		col := obs.NewCollector()
		// The record plane makes the fused loop body refuse its fast path.
		ctl := &cm2.Control{Numeric: rt.NewNumeric(rt.NumericRecord)}
		if _, err := tg.Run(context.Background(), compileCtl(t), nil, col, ctl); err != nil {
			t.Fatal(err)
		}
		counters, hists = map[string]bool{}, map[string]bool{}
		for name := range col.Counters() {
			counters[name] = true
		}
		for name := range col.Histograms() {
			hists[name] = true
		}
		return counters, hists
	}
	c2, h2 := series(cm2.Default().Target())
	c5, h5 := series(cm5.Default().Target())
	for _, name := range []string{"exec/sparc-cycles", "exec/vu-cycles", "exec/pe/" + cm2.SetupClass} {
		if !c5[name] || c2[name] {
			t.Errorf("%s: on cm5 %v, on cm2 %v; want cm5 only", name, c5[name], c2[name])
		}
		delete(c5, name)
	}
	if !reflect.DeepEqual(c2, c5) {
		t.Errorf("counter series differ beyond the node split:\ncm2 %v\ncm5 %v", c2, c5)
	}
	if !reflect.DeepEqual(h2, h5) || !h2["cm2/dispatch-cycles"] {
		t.Errorf("histogram series: cm2 %v, cm5 %v; want equal and with cm2/dispatch-cycles", h2, h5)
	}
	for _, name := range []string{"exec/comm-calls", "exec/routine/Pk0", "exec/fastpath-refused/numeric-plane"} {
		if !c2[name] {
			t.Errorf("%s missing on both targets: %v", name, c2)
		}
	}
}
