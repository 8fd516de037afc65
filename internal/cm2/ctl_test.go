package cm2

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"f90y/internal/faults"
	"f90y/internal/fe"
	"f90y/internal/lower"
	"f90y/internal/opt"
	"f90y/internal/parser"
	"f90y/internal/partition"
	"f90y/internal/pe"
	"f90y/internal/rt"
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

func compileCtl(t *testing.T) *fe.Program {
	t.Helper()
	tree, err := parser.Parse("t.f90", ctlProg)
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

// sameResult asserts two results agree bit-for-bit on every observable:
// output, totals, attribution maps, and the stored data.
func sameResult(t *testing.T, what string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Output, b.Output) {
		t.Errorf("%s: output differs: %q vs %q", what, a.Output, b.Output)
	}
	if a.HostCycles != b.HostCycles || a.PECycles != b.PECycles || a.CommCycles != b.CommCycles {
		t.Errorf("%s: cycles differ: host %v/%v pe %v/%v comm %v/%v", what,
			a.HostCycles, b.HostCycles, a.PECycles, b.PECycles, a.CommCycles, b.CommCycles)
	}
	if a.Flops != b.Flops || a.NodeCalls != b.NodeCalls || a.CommCalls != b.CommCalls {
		t.Errorf("%s: counters differ", what)
	}
	for name, m := range map[string][2]map[string]float64{
		"pe-class":   {a.PEClassCycles, b.PEClassCycles},
		"pe-routine": {a.PERoutineCycles, b.PERoutineCycles},
		"comm-class": {a.CommClassCycles, b.CommClassCycles},
		"host-class": {a.HostClassCycles, b.HostClassCycles},
	} {
		if !reflect.DeepEqual(m[0], m[1]) {
			t.Errorf("%s: %s map differs: %v vs %v", what, name, m[0], m[1])
		}
	}
	for name, arr := range a.Store.Arrays {
		if !reflect.DeepEqual(arr.Data, b.Store.Arrays[name].Data) {
			t.Errorf("%s: array %q differs", what, name)
		}
	}
	if !reflect.DeepEqual(a.Store.Scalars, b.Store.Scalars) {
		t.Errorf("%s: scalars differ", what)
	}
}

// TestRunCtlNilZeroOverhead is the zero-overhead invariant: attaching
// no control plane must leave every cycle total, attribution map, and
// result bit-identical to the plain Run path.
func TestRunCtlNilZeroOverhead(t *testing.T) {
	prog := compileCtl(t)
	m := Default()
	plain, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := m.RunCtl(prog, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "nil-ctl", plain, ctl)
	if ctl.Faults != nil {
		t.Error("nil ctl must not attach fault stats")
	}
	// An empty Control (no injector, no checkpoints) is also exact.
	empty, err := m.RunCtl(prog, nil, nil, &Control{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "empty-ctl", plain, empty)
}

// TestFaultDeterminism: the same fault plan produces the same injected
// sequence, event log, retry counts, and cycle totals on every run.
func TestFaultDeterminism(t *testing.T) {
	prog := compileCtl(t)
	m := Default()
	plan := &faults.Plan{Seed: 99, Drop: 0.05, Corrupt: 0.05, Delay: 0.05, Stall: 0.02, PEKill: 0.05}

	run := func() (*Result, *faults.Injector) {
		inj := faults.New(plan, nil)
		res, err := m.RunCtl(prog, nil, nil, &Control{Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		return res, inj
	}
	res1, inj1 := run()
	res2, inj2 := run()

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
}

// TestFaultedRunStaysExact: injected drops/corruptions/delays are all
// recovered by the runtime, so the stored results match a clean run
// exactly even though the cycle totals grow.
func TestFaultedRunStaysExact(t *testing.T) {
	prog := compileCtl(t)
	m := Default()
	clean, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(&faults.Plan{Seed: 7, Drop: 0.1, Corrupt: 0.1, Delay: 0.1}, nil)
	faulted, err := m.RunCtl(prog, nil, nil, &Control{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	for name, arr := range clean.Store.Arrays {
		if !reflect.DeepEqual(arr.Data, faulted.Store.Arrays[name].Data) {
			t.Errorf("array %q corrupted by recovered faults", name)
		}
	}
	if !reflect.DeepEqual(clean.Output, faulted.Output) {
		t.Errorf("output differs: %q vs %q", clean.Output, faulted.Output)
	}
	if inj.Stats().Retries == 0 {
		t.Fatal("no retries happened; exactness check is vacuous")
	}
	if faulted.CommCycles <= clean.CommCycles {
		t.Errorf("retries charged nothing: %v <= %v", faulted.CommCycles, clean.CommCycles)
	}
}

// TestCheckpointResumeAfterFatal is the acceptance scenario: a run
// killed by an injected fatal fault resumes from its last checkpoint
// and finishes with the same store, output, and totals as a run that
// never faulted.
func TestCheckpointResumeAfterFatal(t *testing.T) {
	prog := compileCtl(t)
	m := Default()
	clean, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}

	var last *rt.Checkpoint
	inj := faults.New(&faults.Plan{Seed: 1, Events: []faults.Event{{At: 40, Kind: faults.FatalStop}}}, nil)
	_, err = m.RunCtl(prog, nil, nil, &Control{
		Faults:          inj,
		CheckpointEvery: 3,
		Checkpoint:      func(ck *rt.Checkpoint) error { last = ck; return nil },
	})
	if !errors.Is(err, faults.ErrFatal) {
		t.Fatalf("run survived the fatal fault: %v", err)
	}
	if last == nil {
		t.Fatal("no checkpoint was written before the fatal fault")
	}
	if last.Machine != "cm2" || last.Schema != rt.CkptSchema {
		t.Fatalf("checkpoint header: %q %q", last.Machine, last.Schema)
	}

	resumed, err := m.RunCtl(prog, nil, nil, &Control{Resume: last})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "resumed", clean, resumed)
}

// TestCheckpointRoundTripsThroughDisk: Write/ReadCheckpoint preserve
// the snapshot bit-for-bit (store values travel as raw IEEE-754 bits;
// the header's cycle buckets through JSON's exact float64 round trip).
func TestCheckpointRoundTripsThroughDisk(t *testing.T) {
	prog := compileCtl(t)
	m := Default()
	var last *rt.Checkpoint
	_, err := m.RunCtl(prog, nil, nil, &Control{
		CheckpointEvery: 5,
		Checkpoint:      func(ck *rt.Checkpoint) error { last = ck; return nil },
	})
	if err != nil || last == nil {
		t.Fatalf("run: %v, ckpt %v", err, last)
	}
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
}

// TestPEKillDegradesOrAborts: a scheduled PE kill either degrades
// gracefully (documented cycle penalty in the "degrade" class) or,
// with degradation disabled, fails cleanly with the sentinel pair.
func TestPEKillDegradesOrAborts(t *testing.T) {
	prog := compileCtl(t)
	m := Default()
	clean, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}

	kill := []faults.Event{{At: 2, Kind: faults.KillPE, PE: 5}}
	inj := faults.New(&faults.Plan{Seed: 1, Events: kill}, nil)
	degraded, err := m.RunCtl(prog, nil, nil, &Control{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Faults.Degraded != 1 || len(degraded.Faults.DeadPEs) != 1 {
		t.Fatalf("stats: %+v", degraded.Faults)
	}
	if degraded.PEClassCycles[DegradeClass] <= 0 {
		t.Error("no degrade cycles charged")
	}
	if degraded.PECycles <= clean.PECycles {
		t.Errorf("degradation charged nothing: %v <= %v", degraded.PECycles, clean.PECycles)
	}
	for name, arr := range clean.Store.Arrays {
		if !reflect.DeepEqual(arr.Data, degraded.Store.Arrays[name].Data) {
			t.Errorf("array %q differs under degradation", name)
		}
	}

	inj = faults.New(&faults.Plan{Seed: 1, Events: kill, NoDegrade: true}, nil)
	_, err = m.RunCtl(prog, nil, nil, &Control{Faults: inj})
	if !errors.Is(err, faults.ErrPEDead) || !errors.Is(err, ErrDispatch) {
		t.Fatalf("error %v must wrap both faults.ErrPEDead and cm2.ErrDispatch", err)
	}
}

// compileSrcCtl compiles an arbitrary source through the same pipeline
// as compileCtl.
func compileSrcCtl(t *testing.T, src string) *fe.Program {
	t.Helper()
	tree, err := parser.Parse("t.f90", src)
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

// TestBudgetKillsRunawayLoop: the cycle watchdog terminates an
// intentionally infinite loop with rt.ErrBudget, at the same host step
// with the same message on every run — a deterministic kill, not a
// wall-clock timeout.
func TestBudgetKillsRunawayLoop(t *testing.T) {
	prog := compileSrcCtl(t, `program loop
integer i
i = 0
do while (i < 1)
  i = i * 1
end do
end program loop
`)
	m := Default()
	_, err1 := m.RunCtl(prog, nil, nil, &Control{MaxCycles: 100_000})
	if !errors.Is(err1, rt.ErrBudget) {
		t.Fatalf("want rt.ErrBudget, got %v", err1)
	}
	_, err2 := m.RunCtl(prog, nil, nil, &Control{MaxCycles: 100_000})
	if err1.Error() != err2.Error() {
		t.Errorf("budget kill not deterministic:\n  %v\n  %v", err1, err2)
	}
}

// TestBudgetResumeMatchesUnbudgeted: a run killed mid-flight by the
// watchdog resumes from its last checkpoint under a higher budget and
// finishes bit-identical to a run that never had a budget.
func TestBudgetResumeMatchesUnbudgeted(t *testing.T) {
	prog := compileCtl(t)
	m := Default()
	clean, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}

	var last *rt.Checkpoint
	_, err = m.RunCtl(prog, nil, nil, &Control{
		MaxCycles:       clean.TotalCycles() / 2,
		CheckpointEvery: 3,
		Checkpoint:      func(ck *rt.Checkpoint) error { last = ck; return nil },
	})
	if !errors.Is(err, rt.ErrBudget) {
		t.Fatalf("half-budget run survived: %v", err)
	}
	if last == nil {
		t.Fatal("no checkpoint before the budget kill")
	}

	resumed, err := m.RunCtl(prog, nil, nil, &Control{
		Resume:    last,
		MaxCycles: clean.TotalCycles() * 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "budget-resumed", clean, resumed)
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
	prog := compileSrcCtl(t, divProg)
	m := Default()
	_, err := m.RunCtl(prog, nil, nil, &Control{Numeric: rt.NewNumeric(rt.NumericTrap)})
	if !errors.Is(err, rt.ErrNumeric) {
		t.Fatalf("want rt.ErrNumeric, got %v", err)
	}
	for _, want := range []string{"fdivv", "inf", "processing element"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("trap error lacks %q: %v", want, err)
		}
	}
}

// TestNumericRecord: record mode tallies exceptional lanes per cycle
// class, completes the run, and leaves the results bit-identical to an
// uninstrumented run.
func TestNumericRecord(t *testing.T) {
	prog := compileSrcCtl(t, divProg)
	m := Default()
	plain, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	num := rt.NewNumeric(rt.NumericRecord)
	res, err := m.RunCtl(prog, nil, nil, &Control{Numeric: num})
	if err != nil {
		t.Fatal(err)
	}
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
}
