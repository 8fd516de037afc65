package rt

// Boundary snapshot/resume plumbing shared by every machine model.
// The CM/2 and CM-5 back ends checkpoint the same state at a host
// boundary — store, output, call counts, and the cycle buckets — and
// differ only in machine-specific extras (the CM-5's three-way node
// split travels in Checkpoint.Extra). Centralizing the common fields
// here means a new checkpoint field cannot silently drift between
// targets.

// CopyMap returns an independent copy of a cycle-bucket map. A nil map
// copies to an empty (non-nil) map.
func CopyMap(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Boundary identifies a host-program resume position: the next
// top-level op and, inside a top-level serial DO, the last completed
// iteration.
type Boundary struct {
	Machine  string // "cm2" or "cm5"
	NextOp   int
	InLoop   bool
	IterDone int
}

// HostState is the host VM's contribution to a snapshot: accumulated
// output and the front-end cycle attribution.
type HostState struct {
	Output      []string
	Cycles      float64
	ClassCycles map[string]float64
}

// ExecTotals is the machine-independent node-side accumulator state: a
// run accumulates into it (cm2.Result embeds it), a snapshot carries it
// and a resume restores it — flop and dispatch counts plus the PE cycle
// total and its attributions (§5.2/§6), each of which sums exactly to
// PECycles.
type ExecTotals struct {
	Flops     int64
	NodeCalls int
	PECycles  float64
	// PEClassCycles attributes PECycles per PEAC instruction class
	// (peac.CycleClass names: vector-arith, divide, sqrt, transcend,
	// load-store, spill, loop; plus the machine layer's degrade and
	// setup classes).
	PEClassCycles map[string]float64
	// PERoutineCycles attributes PECycles per PEAC routine.
	PERoutineCycles map[string]float64
	// PELineCycles attributes PECycles per (routine, source line, class)
	// cell, keyed by the provenance threaded from the Fortran front end
	// through PEAC; the per-class marginals equal PEClassCycles. The
	// attribution is computed from the analytic model before dispatch,
	// so it is bit-identical for every ExecWorkers setting.
	PELineCycles map[LineRef]float64
}

// SnapshotBoundary captures the checkpoint state shared by every
// machine model: the store, the resume position, the host VM state, the
// communication layer's buckets, and the node-side totals. Machine
// layers add their extras (Checkpoint.Extra) on the returned snapshot.
func SnapshotBoundary(store *Store, comm *Comm, b Boundary, host HostState, tot ExecTotals) *Checkpoint {
	ck := store.Checkpoint()
	ck.Machine = b.Machine
	ck.NextOp, ck.InLoop, ck.IterDone = b.NextOp, b.InLoop, b.IterDone
	ck.Output = append([]string(nil), host.Output...)
	ck.Flops = tot.Flops
	ck.NodeCalls = tot.NodeCalls
	ck.CommCalls = comm.Calls
	ck.HostCycles = host.Cycles
	ck.PECycles = tot.PECycles
	ck.CommCycles = comm.Cycles
	ck.PEClassCycles = CopyMap(tot.PEClassCycles)
	ck.PERoutineCycles = CopyMap(tot.PERoutineCycles)
	ck.PELineCycles = CopyLineMap(tot.PELineCycles)
	ck.CommClassCycles = CopyMap(comm.ClassCycles)
	ck.CommLineCycles = CopyLineMap(comm.LineCycles)
	ck.HostClassCycles = host.ClassCycles
	return ck
}

// ResumeBoundary restores the shared snapshot state: the store and the
// communication layer in place, and the node-side totals by value for
// the machine layer's accumulators. The returned maps are copies, so a
// resumed run never aliases the checkpoint.
func ResumeBoundary(ck *Checkpoint, store *Store, comm *Comm) (ExecTotals, error) {
	if err := ck.ApplyStore(store); err != nil {
		return ExecTotals{}, err
	}
	comm.Restore(ck.CommClassCycles, ck.CommLineCycles, ck.CommCalls)
	return ExecTotals{
		Flops:           ck.Flops,
		NodeCalls:       ck.NodeCalls,
		PECycles:        ck.PECycles,
		PEClassCycles:   CopyMap(ck.PEClassCycles),
		PERoutineCycles: CopyMap(ck.PERoutineCycles),
		PELineCycles:    CopyLineMap(ck.PELineCycles),
	}, nil
}
