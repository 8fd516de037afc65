// Package cm5 is the CM5/NIR back end of §5.3.1: the retarget of the
// specified compiler to the Connection Machine CM-5, whose processing
// node is a SPARC augmented with four vector datapaths.
//
// "The CM/5 NIR compiler retains the majority of its structure and,
// therefore, its specification from the CM/2 version... a single NIR
// program will be split three ways rather than two; one part will go to
// the control processor, as before; a second part will be executed on the
// SPARC node processor, and a third part will carry out floating point
// vector operations on the CM/5 vector datapaths."
//
// The package realizes exactly that: it consumes the same partitioned
// program (fe.Program) the CM/2 back end consumes — the machine-
// independent blocking and vectorizing NIR transformations are reused
// unchanged — and only the node-level model differs: each node's SPARC
// issues every computation block (charged NodeSetup cycles) and spreads
// its subgrid across the four vector units.
package cm5

import (
	"context"

	"f90y/internal/cm2"
	"f90y/internal/fe"
	"f90y/internal/hostvm"
	"f90y/internal/obs"
	"f90y/internal/partition"
	"f90y/internal/peac"
	"f90y/internal/rt"
)

// Machine is one CM-5 configuration.
type Machine struct {
	// Nodes is the number of processing nodes (a large CM-5 had 1,024).
	Nodes int
	// VUsPerNode is the number of vector datapaths per node (4).
	VUsPerNode int
	// ClockHz is the node clock (32 MHz).
	ClockHz float64
	// NodeSetup is the SPARC issue cost per computation block per node:
	// argument unpacking and vector-unit kickoff.
	NodeSetup float64
	// VUCost is the vector-datapath cycle model. The CM-5 VU issues one
	// 64-bit result per cycle with pipelined multiply-add.
	VUCost peac.CostModel
	// CommCost models the fat-tree data network.
	CommCost rt.CommCost
	// HostCost models the control processor.
	HostCost hostvm.Cost
}

// Default is a 1,024-node CM-5 with vector units.
func Default() *Machine {
	return &Machine{
		Nodes:      1024,
		VUsPerNode: 4,
		ClockHz:    32e6,
		NodeSetup:  80,
		VUCost: peac.CostModel{
			VectorOp:  4, // pipelined: 4 elements in 4 cycles
			Divide:    24,
			Sqrt:      30,
			Transcend: 48,
			Spill:     6,
			LoopJnz:   1,
		},
		CommCost: rt.CommCost{
			GridStartup:   80,
			GridLocal:     1,
			GridWire:      10, // fat tree: cheaper wires than the CM-2 grid
			RouterStartup: 200,
			RouterPerElem: 20,
			ReduceStartup: 100,
			ReducePerElem: 1,
			HopCost:       10,
		},
		HostCost: hostvm.DefaultCost,
	}
}

// Target describes this CM-5 to the run core — the whole retarget: the
// control processor has already broadcast the block (host side); each
// node's SPARC unpacks arguments and kicks off its vector units (Setup),
// which each take a quarter of the node subgrid (Lanes), and CYCLIC
// layouts are counted exactly per node (partition.NodeSubgridSize).
func (m *Machine) Target() *cm2.Target {
	return &cm2.Target{
		Name: "cm5", Unit: "node",
		Units: m.Nodes, Lanes: m.VUsPerNode, ClockHz: m.ClockHz,
		Setup:   func(r *peac.Routine) float64 { return m.NodeSetup + float64(len(r.Params))*2 },
		Subgrid: partition.NodeSubgridSize,
		PECost:  m.VUCost, CommCost: m.CommCost, HostCost: m.HostCost,
	}
}

// RunCtx executes a partitioned program on the CM-5: cm2.Target.Run
// with this machine's Target on a fresh store (see there for rec, ctl
// and ctx). The input is the same fe.Program the CM/2 consumes: the
// front end is target-independent. Node cycles are attributed to the
// PEAC instruction classes (vector-unit time) plus cm2.SetupClass for
// the node SPARC's block setup; Result.Split is the three-way split's
// node-level breakdown. The Machine is never mutated by a run, so one
// *Machine may serve concurrent RunCtx calls.
func (m *Machine) RunCtx(ctx context.Context, prog *fe.Program, rec obs.Recorder, ctl *cm2.Control) (*cm2.Result, error) {
	return m.Target().Run(ctx, prog, nil, rec, ctl)
}
