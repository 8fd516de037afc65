package cm2

import (
	"context"
	"math"
	"strings"
	"testing"

	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/opt"
	"f90y/internal/parser"
	"f90y/internal/partition"
	"f90y/internal/pe"
	"f90y/internal/peac"
	"f90y/internal/rt"
	"f90y/internal/shape"
)

// execRoutine is the executor's short form for tests: the whole shape,
// serially, through the interpreter, with no numeric plane.
func execRoutine(r *peac.Routine, over shape.Shape, store *rt.Store) error {
	return ExecRoutineOpts(context.Background(), r, over, store, ExecOpts{})
}

func TestMachineRunBasic(t *testing.T) {
	tree, _ := parser.Parse("t.f90", `program t
real a(64), b(64)
integer i
do i = 1, 64
  a(i) = i*0.5
end do
b = a*2.0 + 1.0
print *, 'b1 =', b(1)
end program t
`)
	mod, _ := lower.Lower(tree)
	omod, _ := opt.Optimize(mod, opt.Default)
	prog, _, err := partition.Compile(omod, pe.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Default().RunCtx(context.Background(), prog, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Arrays["b"].Data[0] != 2.0 {
		t.Fatalf("b[0] = %v", res.Store.Arrays["b"].Data[0])
	}
	if len(res.Output) != 1 || !strings.HasPrefix(res.Output[0], "b1 = 2") {
		t.Fatalf("output %q", res.Output)
	}
	if res.NodeCalls == 0 || res.PECycles <= 0 || res.HostCycles <= 0 {
		t.Fatalf("accounting: %+v", res)
	}
	if res.GFLOPS() <= 0 || res.Seconds() <= 0 {
		t.Fatalf("rates: %v GF over %v s", res.GFLOPS(), res.Seconds())
	}
}

// TestExecRoutineDirect drives the PEAC executor on a hand-built routine.
func TestExecRoutineDirect(t *testing.T) {
	// b = a*2 + c, with 2 in a scalar register.
	r := &peac.Routine{
		Name: "P",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "c", Reg: 3},
			{Kind: peac.ArrayParam, Name: "b", Reg: 4},
			{Kind: peac.ConstParam, Value: 2, Reg: 16},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FMADDV, A: peac.V(0), B: peac.S(16), C: peac.V(1), D: peac.V(2)},
			{Op: peac.FSTRV, A: peac.V(2), D: peac.M(4)},
			{Op: peac.JNZ},
		},
	}
	st := &rt.Store{
		Arrays: map[string]*rt.Array{
			"a": rt.NewArray(nir.Float64, shape.Of(10)),
			"b": rt.NewArray(nir.Float64, shape.Of(10)),
			"c": rt.NewArray(nir.Float64, shape.Of(10)),
		},
		Scalars: map[string]float64{},
		Kinds:   map[string]nir.ScalarKind{},
	}
	for i := 0; i < 10; i++ {
		st.Arrays["a"].Data[i] = float64(i)
		st.Arrays["c"].Data[i] = 100
	}
	if err := execRoutine(r, shape.Of(10), st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		want := float64(i)*2 + 100
		if st.Arrays["b"].Data[i] != want {
			t.Fatalf("b[%d] = %v, want %v", i, st.Arrays["b"].Data[i], want)
		}
	}
}

// TestExecRoutineCoordStream checks coordinate subgrid generation for a
// 2-D shape (column-major, declared lower bounds honored).
func TestExecRoutineCoordStream(t *testing.T) {
	r := &peac.Routine{
		Name: "P",
		Params: []peac.Param{
			{Kind: peac.CoordParam, Dim: 1, Reg: 2},
			{Kind: peac.CoordParam, Dim: 2, Reg: 3},
			{Kind: peac.ArrayParam, Name: "a", Reg: 4},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FLODV, A: peac.M(3), D: peac.V(1)},
			{Op: peac.FMULV, A: peac.V(1), B: peac.S(16), D: peac.V(1)},
			{Op: peac.FADDV, A: peac.V(0), B: peac.V(1), D: peac.V(2)},
			{Op: peac.FSTRV, A: peac.V(2), D: peac.M(4)},
		},
	}
	r.Params = append(r.Params, peac.Param{Kind: peac.ConstParam, Value: 100, Reg: 16})
	st := &rt.Store{
		Arrays:  map[string]*rt.Array{"a": rt.NewArray(nir.Float64, shape.Of(3, 2))},
		Scalars: map[string]float64{},
		Kinds:   map[string]nir.ScalarKind{},
	}
	if err := execRoutine(r, shape.Of(3, 2), st); err != nil {
		t.Fatal(err)
	}
	// a(i,j) = i + 100*j, column-major.
	want := []float64{101, 102, 103, 201, 202, 203}
	for i, w := range want {
		if st.Arrays["a"].Data[i] != w {
			t.Fatalf("a = %v", st.Arrays["a"].Data)
		}
	}
}

// TestExecRoutineMaskedStore verifies masked lanes are untouched.
func TestExecRoutineMaskedStore(t *testing.T) {
	r := &peac.Routine{
		Name: "P",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "m", Reg: 2},
			{Kind: peac.ArrayParam, Name: "a", Reg: 3},
			{Kind: peac.ConstParam, Value: 9, Reg: 16},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FSTRV, A: peac.S(16), C: peac.V(0), D: peac.M(3)},
		},
	}
	st := &rt.Store{
		Arrays: map[string]*rt.Array{
			"m": rt.NewArray(nir.Logical32, shape.Of(4)),
			"a": rt.NewArray(nir.Float64, shape.Of(4)),
		},
		Scalars: map[string]float64{},
		Kinds:   map[string]nir.ScalarKind{},
	}
	st.Arrays["m"].Data = []float64{1, 0, 1, 0}
	st.Arrays["a"].Data = []float64{5, 5, 5, 5}
	if err := execRoutine(r, shape.Of(4), st); err != nil {
		t.Fatal(err)
	}
	want := []float64{9, 5, 9, 5}
	for i, w := range want {
		if st.Arrays["a"].Data[i] != w {
			t.Fatalf("a = %v", st.Arrays["a"].Data)
		}
	}
}

func TestExecRoutineErrors(t *testing.T) {
	bad := &peac.Routine{Name: "P",
		Params: []peac.Param{{Kind: peac.ArrayParam, Name: "ghost", Reg: 2}},
		Body:   []peac.Instr{{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)}}}
	st := &rt.Store{Arrays: map[string]*rt.Array{}, Scalars: map[string]float64{}, Kinds: map[string]nir.ScalarKind{}}
	if err := execRoutine(bad, shape.Of(4), st); err == nil {
		t.Fatal("undefined array accepted")
	}
}

// TestChunkingIsExact: results must be identical regardless of chunk
// boundaries (the shape is larger than one chunk).
func TestChunkingIsExact(t *testing.T) {
	n := chunkSize*2 + 17
	r := &peac.Routine{
		Name: "P",
		Params: []peac.Param{
			{Kind: peac.ArrayParam, Name: "a", Reg: 2},
			{Kind: peac.ArrayParam, Name: "b", Reg: 3},
		},
		Body: []peac.Instr{
			{Op: peac.FLODV, A: peac.M(2), D: peac.V(0)},
			{Op: peac.FSQRTV, A: peac.V(0), D: peac.V(1)},
			{Op: peac.FSTRV, A: peac.V(1), D: peac.M(3)},
		},
	}
	st := &rt.Store{
		Arrays: map[string]*rt.Array{
			"a": rt.NewArray(nir.Float64, shape.Of(n)),
			"b": rt.NewArray(nir.Float64, shape.Of(n)),
		},
		Scalars: map[string]float64{},
		Kinds:   map[string]nir.ScalarKind{},
	}
	for i := 0; i < n; i++ {
		st.Arrays["a"].Data[i] = float64(i)
	}
	if err := execRoutine(r, shape.Of(n), st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if st.Arrays["b"].Data[i] != math.Sqrt(float64(i)) {
			t.Fatalf("b[%d] = %v", i, st.Arrays["b"].Data[i])
		}
	}
}

func TestGFLOPSScalesWithPEs(t *testing.T) {
	src := `program t
real, array(256,256) :: a, b
b = a*2.0 + 1.0
end program t
`
	tree, _ := parser.Parse("t.f90", src)
	mod, _ := lower.Lower(tree)
	omod, _ := opt.Optimize(mod, opt.Default)
	prog, _, _ := partition.Compile(omod, pe.Optimized)

	small := Default()
	small.PEs = 256
	big := Default()

	rs, err := small.RunCtx(context.Background(), prog, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := big.RunCtx(context.Background(), prog, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rb.GFLOPS() <= rs.GFLOPS() {
		t.Fatalf("more PEs not faster: %v vs %v", rb.GFLOPS(), rs.GFLOPS())
	}
}
