package rt

import (
	"fmt"
	"math"
	"slices"

	"f90y/internal/faults"
	"f90y/internal/nir"
	"f90y/internal/shape"
	"f90y/internal/source"
)

// Communication cycle classes: every charge is attributed to the
// network that carries it, mirroring §2.2's split between the microcoded
// NEWS grid, the general router, and the combine/reduction trees.
const (
	CommGrid   = "grid"
	CommRouter = "router"
	CommReduce = "reduce"
)

// CommClasses lists the communication cycle classes.
var CommClasses = []string{CommGrid, CommRouter, CommReduce}

// Comm executes communication-class moves against a store, accumulating
// modeled cycles.
type Comm struct {
	Store  *Store
	PEs    int
	Cost   CommCost
	Cycles float64
	Calls  int
	// ClassCycles attributes Cycles per communication class (CommGrid,
	// CommRouter, CommReduce); the class values sum exactly to Cycles.
	ClassCycles map[string]float64
	// LineCycles attributes Cycles to the source line of the move that
	// caused each transfer, keyed under the CommRoutine pseudo-routine
	// with the communication class as the cycle class. The values sum
	// exactly to Cycles, so flamegraphs can overlay network time onto
	// PE time and show where a bad layout burns router cycles.
	LineCycles map[LineRef]float64
	// OpCalls, when non-nil, counts this run's transfers under
	// "<op>/<class>" (shift|transpose|gather|spread|reduce|dot|general
	// over the CommClasses): which operations left the NEWS grid. Nil
	// costs one branch per transfer.
	OpCalls map[string]float64
	// pos is the source position of the guarded move currently
	// executing; charge attributes cycles (including fault retries) to
	// it. op names the operation for OpCalls.
	pos source.Pos
	op  string
	// scratch is the staging buffer comm ops reuse between transfers.
	// Comm ops run serially on the host thread and deliver never
	// retains the staged slice past the call, so one buffer suffices;
	// every op overwrites every element it delivers.
	scratch []float64
	// Faults, when non-nil, subjects every transfer to the injection
	// plane: drops and corruptions are detected (ack timeout,
	// per-transfer checksum) and retried with capped exponential
	// backoff, each retry charging extra cycles into the transfer's
	// class bucket. Nil costs one branch per transfer and leaves every
	// cycle total bit-identical to a fault-free build.
	Faults *faults.Injector
}

// stage returns a length-n staging buffer backed by the comm's reused
// scratch allocation. The caller must write every element before
// delivering (all comm stagers do), so the buffer is never cleared.
func (c *Comm) stage(n int) []float64 {
	if cap(c.scratch) < n {
		c.scratch = make([]float64, n)
	}
	return c.scratch[:n]
}

// stageFor returns the buffer a comm op should build its payload in:
// the destination's own storage when the healthy path can commit in
// place (no injector attached and the destination is distinct from
// every source array), or the reused scratch buffer otherwise.
// deliverArray detects an in-place payload and skips the commit copy;
// the fault path always stages separately so drops and retransmissions
// replay from an intact payload.
func (c *Comm) stageFor(dst *Array, srcs ...*Array) []float64 {
	if c.Faults == nil {
		inPlace := true
		for _, s := range srcs {
			if s == dst {
				inPlace = false
				break
			}
		}
		if inPlace {
			return dst.Data
		}
	}
	return c.stage(dst.Size())
}

func fill(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}

// Restore pre-seeds the per-class and per-line cycle attribution (and
// the re-summed total) from a checkpoint, so a resumed run's totals
// continue from the snapshot.
func (c *Comm) Restore(classCycles map[string]float64, lineCycles map[LineRef]float64, calls int) {
	c.LineCycles = CopyLineMap(lineCycles)
	if c.ClassCycles == nil {
		c.ClassCycles = map[string]float64{CommGrid: 0, CommRouter: 0, CommReduce: 0}
	}
	for cl, v := range classCycles {
		c.ClassCycles[cl] += v
	}
	c.Cycles = c.ClassCycles[CommGrid] + c.ClassCycles[CommRouter] + c.ClassCycles[CommReduce]
	c.Calls = calls
}

// charge attributes cyc to one communication class. Cycles is kept as
// the re-summed class total so the per-class values always sum exactly
// to it, independent of charge interleaving. The same cycles are also
// attributed to the source line of the move being executed.
func (c *Comm) charge(class string, cyc float64) {
	if c.ClassCycles == nil {
		c.ClassCycles = map[string]float64{CommGrid: 0, CommRouter: 0, CommReduce: 0}
	}
	c.ClassCycles[class] += cyc
	c.Cycles = c.ClassCycles[CommGrid] + c.ClassCycles[CommRouter] + c.ClassCycles[CommReduce]
	if c.LineCycles == nil {
		c.LineCycles = map[LineRef]float64{}
	}
	c.LineCycles[LineRef{Routine: CommRoutine, File: c.pos.File, Line: c.pos.Line, Class: class}] += cyc
}

func (c *Comm) layoutOf(a *Array) shape.Layout {
	return shape.Distribute(shape.Of(a.Ext...), c.PEs, a.Dist)
}

// effectivePair resolves the (source, target) distribution pair of a
// communication. An array without an explicit distribution is treated
// as aligned with its distributed partner: the compiler materializes
// temporaries in the layout of their consumers, so only explicit
// directives change routing. Two arrays without one are both all-BLOCK.
func effectivePair(src, out *Array) (shape.Distribution, shape.Distribution) {
	sd, od := src.Dist, out.Dist
	if sd.IsDefault() {
		sd = od
	}
	if od.IsDefault() {
		od = sd
	}
	return sd, od
}

// ExecMove executes one communication-class move: either a runtime
// intrinsic call (cm_*) or a general data motion between shapes, routed
// elementwise.
func (c *Comm) ExecMove(m nir.Move) error {
	c.Calls++
	defer func() { c.pos = source.Pos{} }()
	for _, g := range m.Moves {
		c.pos = g.Pos
		if !c.pos.IsValid() {
			c.pos = m.Pos
		}
		if fc, ok := g.Src.(nir.FcnCall); ok {
			if err := c.execIntrinsic(fc, g.Tgt); err != nil {
				return err
			}
			continue
		}
		c.op = "general"
		if err := c.generalMove(m.Over, g); err != nil {
			return err
		}
	}
	return nil
}

// arrayArg resolves an intrinsic's array operand or target for code
// that indexes its Data: a shift view is given memory first.
func (c *Comm) arrayArg(v nir.Value, what string) (*Array, error) {
	_, a, err := c.arrayRef(v, what)
	if err != nil {
		return nil, err
	}
	return a, c.owned(a)
}

// arrayRef resolves an array operand by name and leaves a shift view
// a view.
func (c *Comm) arrayRef(v nir.Value, what string) (string, *Array, error) {
	av, ok := v.(nir.AVar)
	if !ok {
		return "", nil, fmt.Errorf("rt: %s must be an array reference: %w", what, ErrBadOperand)
	}
	a, ok := c.Store.Arrays[av.Name]
	if !ok {
		return "", nil, fmt.Errorf("rt: undefined array %q: %w", av.Name, ErrUndefined)
	}
	return av.Name, a, nil
}

// owned makes sure a owns memory before the comm layer indexes it.
func (c *Comm) owned(a *Array) error {
	if err := c.Store.Materialize(a, MaterializedCommRead); err != nil {
		return fmt.Errorf("rt: %w", err)
	}
	return nil
}

func (c *Comm) scalarArg(v nir.Value) (float64, error) {
	val, _, err := Eval(v, &EvalCtx{Store: c.Store})
	return val, err
}

func (c *Comm) execIntrinsic(fc nir.FcnCall, tgt nir.Value) error {
	var exec func(nir.FcnCall, nir.Value) error
	switch fc.Name {
	case "cm_cshift", "cm_eoshift":
		c.op, exec = "shift", c.execShift
	case "cm_reduce_sum", "cm_reduce_product", "cm_reduce_max", "cm_reduce_min",
		"cm_reduce_any", "cm_reduce_all", "cm_reduce_count":
		c.op, exec = "reduce", c.execReduce
	case "cm_transpose":
		c.op, exec = "transpose", c.execTranspose
	case "cm_gather":
		c.op, exec = "gather", c.execGather
	case "cm_spread":
		c.op, exec = "spread", c.execSpread
	case "cm_dot":
		c.op, exec = "dot", c.execDot
	default:
		return fmt.Errorf("rt: unknown runtime intrinsic %q: %w", fc.Name, ErrBadOperand)
	}
	return exec(fc, tgt)
}

// execShift implements circular and end-off grid shifts over the NEWS
// network. The modeled cost depends on the operands' shapes and layouts
// alone; how the host moves the payload is a separate choice: a healthy
// circular shift into a temporary the compiler marked (Array.ShiftView)
// records a view of the source and moves nothing, everything else
// copies — with the fault injector attached included, because the
// staged, checksummed payload is what the injector mangles.
func (c *Comm) execShift(fc nir.FcnCall, tgt nir.Value) error {
	srcName, src, err := c.arrayRef(fc.Args[0], fc.Name)
	if err != nil {
		return err
	}
	shiftF, err := c.scalarArg(fc.Args[1])
	if err != nil {
		return err
	}
	shift := int(shiftF)
	circular := fc.Name == "cm_cshift"
	boundary := 0.0
	dimArgIdx := 2
	if !circular {
		boundary, err = c.scalarArg(fc.Args[2])
		if err != nil {
			return err
		}
		dimArgIdx = 3
	}
	dimF, err := c.scalarArg(fc.Args[dimArgIdx])
	if err != nil {
		return err
	}
	dim := int(dimF)
	_, out, err := c.arrayRef(tgt, "intrinsic target")
	if err != nil {
		return err
	}
	if out.Size() != src.Size() {
		return fmt.Errorf("rt: shift target size %w", ErrShape)
	}

	d := dim - 1
	if d < 0 || d >= src.Rank() {
		return fmt.Errorf("rt: shift dim %d out of range: %w", dim, ErrShape)
	}
	class, cyc := c.shiftCost(src, out, d, shift)

	if circular && out.ShiftView && c.Faults == nil && slices.Equal(src.Ext, out.Ext) {
		v, err := viewOf(srcName, src, d, shift)
		if err != nil {
			return fmt.Errorf("rt: %s of %q: %w", fc.Name, srcName, err)
		}
		if v.src != out {
			return c.deliver(class, cyc, transfer{elems: out.Size(), commit: func() { out.setView(v) }})
		}
	}
	if err := c.owned(src); err != nil {
		return err
	}
	if out.Data == nil {
		why := MaterializedCommRead
		if c.Faults != nil {
			why = MaterializedArmed
		}
		c.Store.overwrite(out, why)
	}
	tmp := c.stageFor(out, src)
	shiftInto(tmp, src.Data, src.Ext, d, shift, circular, boundary)
	return c.deliverArray(class, cyc, out, tmp)
}

// shiftInto writes src shifted by shift along dimension d (0-based) of
// an array of extents ext into dst: dst[i] = src[i+shift] along d,
// wrapping when circular, boundary where an end-off shift runs out.
// It goes block by block: each (outer, i) pair covers a contiguous
// strideBelow-long run, so the whole shift is memmoves instead of a
// per-element divide/modulo to recover i from the flat offset. A shift
// along the lowest axis (strideBelow == 1) degenerates to one-element
// "runs", so it gets its own form: each n-long block is a rotation (two
// copies) or an end-off slide (one copy plus a boundary fill).
func shiftInto(dst, src []float64, ext []int, d, shift int, circular bool, boundary float64) {
	n := ext[d]
	strideBelow := 1
	for k := 0; k < d; k++ {
		strideBelow *= ext[k]
	}
	if strideBelow == 1 {
		s := shift
		if circular {
			s = ((s % n) + n) % n
		}
		for base := 0; base < len(dst); base += n {
			switch {
			case circular:
				copy(dst[base:base+n-s], src[base+s:base+n])
				copy(dst[base+n-s:base+n], src[base:base+s])
			case s >= n || s <= -n:
				fill(dst[base:base+n], boundary)
			case s >= 0:
				copy(dst[base:base+n-s], src[base+s:base+n])
				fill(dst[base+n-s:base+n], boundary)
			default:
				fill(dst[base:base-s], boundary)
				copy(dst[base-s:base+n], src[base:base+n+s])
			}
		}
		return
	}
	blk := n * strideBelow
	for base := 0; base < len(dst); base += blk {
		for i := 0; i < n; i++ {
			row := dst[base+i*strideBelow : base+(i+1)*strideBelow]
			j := i + shift
			if circular {
				j = ((j % n) + n) % n
			} else if j < 0 || j >= n {
				fill(row, boundary)
				continue
			}
			copy(row, src[base+j*strideBelow:base+(j+1)*strideBelow])
		}
	}
}

// shiftCost prices a shift of src into out along dimension d: a grid
// shift between identically-distributed arrays, a general-router
// realignment across two different layouts.
func (c *Comm) shiftCost(src, out *Array, d, shift int) (string, float64) {
	srcD, outD := effectivePair(src, out)
	l := shape.Distribute(shape.Of(src.Ext...), c.PEs, srcD)
	if !srcD.Equal(outD, src.Rank()) {
		return CommRouter, c.Cost.RouterPass(l.SubgridSize())
	}
	return c.Cost.Shift(l, d, shift)
}

func (c *Comm) execReduce(fc nir.FcnCall, tgt nir.Value) error {
	src, err := c.arrayArg(fc.Args[0], fc.Name)
	if err != nil {
		return err
	}
	var acc float64
	switch fc.Name {
	case "cm_reduce_sum":
		for _, v := range src.Data {
			acc += v
		}
	case "cm_reduce_product":
		acc = 1
		for _, v := range src.Data {
			acc *= v
		}
		if src.Kind == nir.Integer32 {
			acc = math.Trunc(acc)
		}
	case "cm_reduce_any":
		for _, v := range src.Data {
			if v != 0 {
				acc = 1
				break
			}
		}
	case "cm_reduce_all":
		acc = 1
		for _, v := range src.Data {
			if v == 0 {
				acc = 0
				break
			}
		}
	case "cm_reduce_count":
		for _, v := range src.Data {
			if v != 0 {
				acc++
			}
		}
	case "cm_reduce_max":
		acc = math.Inf(-1)
		for _, v := range src.Data {
			acc = math.Max(acc, v)
		}
	case "cm_reduce_min":
		acc = math.Inf(1)
		for _, v := range src.Data {
			acc = math.Min(acc, v)
		}
	}
	sv, ok := tgt.(nir.SVar)
	if !ok {
		return fmt.Errorf("rt: reduction target must be scalar: %w", ErrBadOperand)
	}

	return c.deliverScalar(CommReduce, c.Cost.Reduce(c.layoutOf(src)), src.Size(), sv.Name, acc)
}

func (c *Comm) execTranspose(fc nir.FcnCall, tgt nir.Value) error {
	src, err := c.arrayArg(fc.Args[0], "cm_transpose")
	if err != nil {
		return err
	}
	out, err := c.arrayArg(tgt, "intrinsic target")
	if err != nil {
		return err
	}
	if src.Rank() != 2 || out.Size() != src.Size() {
		return fmt.Errorf("rt: transpose %w", ErrShape)
	}
	// The off-PE traffic is counted exactly: element (i,j) of the
	// source lands at (j,i) of the target, and a partner without an
	// explicit layout is assumed aligned with the transpose of the
	// explicit one (that is where the compiler materializes the
	// temporary). A (BLOCK,*) -> (*,BLOCK) transpose is thereby fully
	// PE-local.
	sd, od := src.Dist, out.Dist
	if sd.IsDefault() {
		sd = od.Reverse(2)
	}
	if od.IsDefault() {
		od = sd.Reverse(2)
	}
	ls := shape.Distribute(shape.Of(src.Ext...), c.PEs, sd)
	lo := shape.Distribute(shape.Of(out.Ext...), c.PEs, od)
	r, cl := src.Ext[0], src.Ext[1]
	tmp := c.stageFor(out, src)
	off := 0
	for j := 0; j < cl; j++ {
		for i := 0; i < r; i++ {
			tmp[j+i*cl] = src.Data[i+j*r]
		}
	}
	// Counted in a loop of its own: inside the strided staging loop the
	// two Owner calls nearly doubled a transpose (EXPERIMENTS B9).
	for j := 0; j < cl; j++ {
		for i := 0; i < r; i++ {
			if ls.Owner(i, j) != lo.Owner(j, i) {
				off++
			}
		}
	}
	class, cyc := c.Cost.Routed(off, len(tmp)-off, lo)
	return c.deliverArray(class, cyc, out, tmp)
}

// execGather implements cm_gather: out(i) = src(idx(i)) for rank-1 src
// and idx. The cost model counts, element by element, how many fetches
// cross a PE boundary under the (source, target) layout pair — the
// irregular-access pattern only the general router can serve. The
// result array shares the index array's layout (it is computed
// elementwise from it).
func (c *Comm) execGather(fc nir.FcnCall, tgt nir.Value) error {
	src, err := c.arrayArg(fc.Args[0], "cm_gather")
	if err != nil {
		return err
	}
	idx, err := c.arrayArg(fc.Args[1], "cm_gather")
	if err != nil {
		return err
	}
	out, err := c.arrayArg(tgt, "intrinsic target")
	if err != nil {
		return err
	}
	if src.Rank() != 1 || idx.Rank() != 1 || out.Size() != idx.Size() {
		return fmt.Errorf("rt: gather %w", ErrShape)
	}
	srcD, outD := effectivePair(src, out)
	ls := shape.Distribute(shape.Of(src.Ext...), c.PEs, srcD)
	lo := shape.Distribute(shape.Of(out.Ext...), c.PEs, outD)
	tmp := c.stage(idx.Size())
	off := 0
	for i := range tmp {
		j := int(idx.Data[i]) - src.Lo[0]
		if j < 0 || j >= len(src.Data) {
			return fmt.Errorf("rt: gather index %d out of bounds: %w", j+src.Lo[0], ErrShape)
		}
		tmp[i] = src.Data[j]
		if ls.Owner(j) != lo.Owner(i) {
			off++
		}
	}
	class, cyc := c.Cost.Routed(off, len(tmp)-off, lo)
	return c.deliverArray(class, cyc, out, tmp)
}

func (c *Comm) execSpread(fc nir.FcnCall, tgt nir.Value) error {
	dimF, err := c.scalarArg(fc.Args[1])
	if err != nil {
		return err
	}
	dim := int(dimF)
	out, err := c.arrayArg(tgt, "intrinsic target")
	if err != nil {
		return err
	}

	var srcData []float64
	var srcExt []int
	var srcArr *Array
	switch a := fc.Args[0].(type) {
	case nir.AVar:
		arr, err := c.arrayArg(a, "cm_spread")
		if err != nil {
			return err
		}
		srcArr = arr
		srcData, srcExt = arr.Data, arr.Ext
	default:
		v, err := c.scalarArg(fc.Args[0])
		if err != nil {
			return err
		}
		srcData = []float64{v}
	}
	// Walk the output; drop the spread dimension to find the source
	// element.
	tmp := c.stageFor(out, srcArr)
	idx := make([]int, out.Rank())
	for off := 0; off < out.Size(); off++ {
		sOff, stride := 0, 1
		k := 0
		for d := 0; d < out.Rank(); d++ {
			if d == dim-1 {
				continue
			}
			if k < len(srcExt) {
				sOff += idx[d] * stride
				stride *= srcExt[k]
				k++
			}
		}
		if len(srcData) == 1 {
			sOff = 0
		}
		tmp[off] = srcData[sOff]
		for d := 0; d < out.Rank(); d++ {
			idx[d]++
			if idx[d] < out.Ext[d] {
				break
			}
			idx[d] = 0
		}
	}
	return c.deliverArray(CommGrid, c.Cost.Spread(c.layoutOf(out)), out, tmp)
}

func (c *Comm) execDot(fc nir.FcnCall, tgt nir.Value) error {
	a, err := c.arrayArg(fc.Args[0], "cm_dot")
	if err != nil {
		return err
	}
	b, err := c.arrayArg(fc.Args[1], "cm_dot")
	if err != nil {
		return err
	}
	if a.Size() != b.Size() {
		return fmt.Errorf("rt: dot_product size %w", ErrShape)
	}
	acc := 0.0
	if a.Kind == nir.Integer32 && b.Kind == nir.Integer32 {
		for i := range a.Data {
			acc += math.Trunc(a.Data[i]) * math.Trunc(b.Data[i])
		}
	} else {
		for i := range a.Data {
			acc += a.Data[i] * b.Data[i]
		}
	}
	sv, ok := tgt.(nir.SVar)
	if !ok {
		return fmt.Errorf("rt: dot_product target must be scalar: %w", ErrBadOperand)
	}
	return c.deliverScalar(CommReduce, c.Cost.Dot(c.layoutOf(a)), a.Size(), sv.Name, acc)
}
