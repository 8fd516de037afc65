package f90y_test

// Shift views end to end: whether a CSHIFT's temporary is a view of its
// source or a copy is decided per temporary at compile time and per run
// by whether a fault injector is attached. Each program below is run
// three ways — plain (views), under an attached injector that injects
// nothing (every shift copies), and through the three-way oracle — and
// the first two must agree on the store, the output and every cycle
// map: a view changes where the host moves bytes, never a result or a
// modeled cycle.

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/faults"
	"f90y/internal/obs"
	"f90y/internal/oracle"
	"f90y/internal/rt"
	"f90y/internal/workload"
)

func viewProg(decls, body string) string {
	return "program t\n" + decls + "\n" + body + "\nend program t\n"
}

var shiftViewCases = []struct {
	name, src string
	marked    float64
	refused   map[string]float64
}{
	// Accepted shapes.
	{name: "chain on two axes", marked: 2, src: viewProg(`real a(8,8), b(8,8)`,
		`forall (i=1:8, j=1:8) a(i,j) = i + 10*j
b = cshift(cshift(a, 1, 1), -1, 2) + a
print *, sum(b), b(1,1), b(8,8)`)},
	{name: "every axis of a rank-3 array", marked: 3, src: viewProg(`real a(5,4,3), b(5,4,3)`,
		`forall (i=1:5, j=1:4, k=1:3) a(i,j,k) = i + 10*j + 100*k
b = cshift(a, 2, 1) - cshift(a, -1, 2) + 0.5*cshift(a, 1, 3)
print *, sum(b), b(1,1,1), b(5,4,3)`)},
	{name: "shift past the extent, negative shift", marked: 3, src: viewProg(`real a(8), b(8)`,
		`forall (i=1:8) a(i) = i*i
b = cshift(a, 19) + 2.0*cshift(a, -11) + 3.0*cshift(a, -8)
print *, b`)},
	{name: "integer array", marked: 2, src: viewProg(`integer k(9), m(9)`,
		`forall (i=1:9) k(i) = i*7 - 20
m = cshift(k, 2) - cshift(k, -3)
print *, m`)},
	{name: "cyclic source", marked: 1, src: "program t\nreal a(64), b(64)\n!HPF$ DISTRIBUTE a(CYCLIC)\n!HPF$ ALIGN b WITH a\n" +
		"forall (i=1:64) a(i) = i\nb = cshift(a, 3) + a\nprint *, sum(b), b(1), b(64)\nend program t\n"},
	{name: "inside a serial DO", marked: 2, src: viewProg(`real a(16), b(16)
integer it`,
		`forall (i=1:16) a(i) = i
b = 0.0
do it = 1, 4
  b = b + cshift(a, 1)
  a = b - cshift(b, -1)
end do
print *, sum(a), sum(b)`)},
	{name: "consumer under WHERE", marked: 1, src: viewProg(`real a(12), b(12)`,
		`forall (i=1:12) a(i) = i - 6
b = -1.0
where (a > 0.0)
  b = cshift(a, 1)*2.0
end where
print *, b`)},
	{name: "shift by the DO index", marked: 2, refused: map[string]float64{"eoshift": 2}, src: workload.DoShift(8)},
	{name: "strips straddle rows", marked: 2, src: viewProg(`real a(3,1365), b(3,1365)`,
		`forall (i=1:3, j=1:1365) a(i,j) = i + 3*j
b = cshift(a, 1, 1) + cshift(a, -1, 2)
print *, sum(b), b(1,1), b(3,1365)`)},

	// Refusals that Fortran source can produce (the rest need a
	// hand-built host program: internal/partition's table).
	{name: "eoshift", refused: map[string]float64{"eoshift": 1}, src: viewProg(`real a(8), b(8)`,
		`forall (i=1:8) a(i) = i
b = eoshift(a, 1) + a
print *, b`)},
	{name: "printed", refused: map[string]float64{"host-read": 1}, src: viewProg(`real a(8)`,
		`forall (i=1:8) a(i) = i
print *, cshift(a, 1)`)},
	{name: "reduced", refused: map[string]float64{"non-shift-comm-read": 1}, src: viewProg(`real a(8)
real s`,
		`forall (i=1:8) a(i) = i
s = sum(cshift(a, 1))
print *, s`)},
	{name: "transposed", refused: map[string]float64{"non-shift-comm-read": 1}, src: viewProg(`real a(8,8), b(8,8)`,
		`forall (i=1:8, j=1:8) a(i,j) = i + 10*j
b = transpose(cshift(a, 1, 1))
print *, b(1,2), sum(b)`)},
	{name: "self-assigning shift", refused: map[string]float64{"consumer-stores-source": 2}, src: viewProg(`real a(8)`,
		`forall (i=1:8) a(i) = i
a = 0.5*(cshift(a, 1) + cshift(a, -1))
print *, a`)},
}

// viewRun compiles src afresh with a recorder and runs it.
func viewRun(t *testing.T, src string, ctl *cm2.Control) (*cm2.Result, map[string]float64) {
	t.Helper()
	col := obs.NewCollector()
	cfg := f90y.DefaultConfig()
	cfg.Obs = col
	comp, err := f90y.Compile("t.f90", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := comp.Run(context.Background(), ctl)
	if err != nil {
		t.Fatal(err)
	}
	return res, col.Counters()
}

func TestShiftViewsThreeWays(t *testing.T) {
	for _, tc := range shiftViewCases {
		t.Run(tc.name, func(t *testing.T) {
			plain, counters := viewRun(t, tc.src, nil)
			armed, _ := viewRun(t, tc.src, &cm2.Control{Faults: faults.New(&faults.Plan{Seed: 7}, nil)})
			if _, err := oracle.Verify("t.f90", tc.src, oracle.Options{}); err != nil {
				t.Errorf("oracle: %v", err)
			}

			// The decisions, each under its counter.
			want := map[string]float64{"partition/shift-view/marked": tc.marked}
			for reason, n := range tc.refused {
				want["partition/shift-view/refused/"+reason] = n
			}
			for name, v := range counters {
				if strings.HasPrefix(name, "partition/shift-view/") && want[name] != v {
					t.Errorf("%s = %v, want %v", name, v, want[name])
				}
				if strings.HasPrefix(name, "rt/shift-view/materialized/") {
					t.Errorf("the plain run materialized a view: %s = %v", name, v)
				}
				delete(want, name)
			}
			if len(want) != 0 {
				t.Errorf("missing counters: %v", want)
			}
			if tc.marked > 0 && counters["exec/shift-view/bound"] == 0 {
				t.Error("views were marked and none was bound")
			}
			if got := armed.Store.Materialized[rt.MaterializedArmed]; (got > 0) != (tc.marked > 0) {
				t.Errorf("armed run materialized %d temporaries with %v marked", got, tc.marked)
			}
			for name, a := range plain.Store.Arrays {
				if b := armed.Store.Arrays[name]; a.ShiftView && (a.Data != nil || b.Data == nil) {
					t.Errorf("%s: a marked temporary owns memory with views (%v) or none under the injector (%v)",
						name, a.Data != nil, b.Data == nil)
				}
			}
			sameViewRun(t, "with copies", plain, armed)

			// The translated form gathers runs; the reference evaluator
			// indexes element by element.
			var ref *cm2.Result
			withEngine(cm2.EngineReference, func() { ref, _ = viewRun(t, tc.src, nil) })
			sameViewRun(t, "under the reference evaluator", plain, ref)
		})
	}
}

// sameViewRun asserts that other reports everything plain does: output,
// totals, every cycle map, the scalars, and every array that is program
// state bit for bit.
func sameViewRun(t *testing.T, what string, plain, other *cm2.Result) {
	t.Helper()
	totals := func(r *cm2.Result) []float64 {
		return []float64{r.PECycles, r.CommCycles, r.HostCycles, float64(r.Flops), float64(r.NodeCalls), float64(r.CommCalls)}
	}
	for name, pair := range map[string][2]any{
		"output":     {plain.Output, other.Output},
		"totals":     {totals(plain), totals(other)},
		"pe-class":   {plain.PEClassCycles, other.PEClassCycles},
		"pe-routine": {plain.PERoutineCycles, other.PERoutineCycles},
		"pe-line":    {plain.PELineCycles, other.PELineCycles},
		"comm-class": {plain.CommClassCycles, other.CommClassCycles},
		"comm-line":  {plain.CommLineCycles, other.CommLineCycles},
		"host-class": {plain.HostClassCycles, other.HostClassCycles},
		"scalars":    {plain.Store.Scalars, other.Store.Scalars},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s: %v with views, %v %s", name, pair[0], pair[1], what)
		}
	}
	for name, a := range plain.Store.Arrays {
		if a.ShiftView {
			continue
		}
		b := other.Store.Arrays[name]
		for i := range a.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
				t.Fatalf("%s[%d] = %v with views, %v %s", name, i, a.Data[i], b.Data[i], what)
			}
		}
	}
}
