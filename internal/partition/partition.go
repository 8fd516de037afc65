// Package partition implements the CM2/NIR compiler of §5.1: it models
// the CM/2 host and nodes together as a single machine, then partitions
// input NIR programs into subprograms for each half. "The CM2/NIR compiler
// just cuts out the computation phases and patches the remaining program
// to include appropriate NIR calling code. Each computation phase will be
// compiled as a single node procedure, and the remainder will become
// supporting host code." Computation blocks go to the PE/NIR compiler;
// the remainder goes to the FE/NIR host representation.
package partition

import (
	"fmt"
	"strconv"

	"f90y/internal/fe"
	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/obs"
	"f90y/internal/opt"
	"f90y/internal/pe"
	"f90y/internal/peac"
	"f90y/internal/shape"
)

// Stats describes the division of labor the partitioner produced.
type Stats struct {
	NodeRoutines int // computation blocks compiled to PEAC
	CommCalls    int // runtime communication invocations
	HostMoves    int // front-end scalar/element assignments
	Fallbacks    int // compute blocks the PE compiler rejected (host path)
	ShiftViews   int // shift temporaries that hold no memory (shiftview.go)
}

// Compile partitions an optimized module into a host program plus PEAC
// node procedures. peOpts selects the PE/NIR compiler's optimization
// level (pe.Optimized or pe.Naive, or any ablation in between).
func Compile(mod *lower.Module, peOpts pe.Options) (*fe.Program, Stats, error) {
	return CompileObs(mod, peOpts, nil)
}

// CompileObs is Compile with telemetry: every PE/NIR compilation emits
// one "pe-codegen" span plus per-routine size counters, and the
// partition statistics are emitted as counters. rec may be nil.
func CompileObs(mod *lower.Module, peOpts pe.Options, rec obs.Recorder) (*fe.Program, Stats, error) {
	p := &partitioner{
		cls: &opt.Classifier{Syms: mod.Syms},
		pe:  pe.NewCompiler(mod.Syms, peOpts),
		rec: rec,
	}
	ops, err := p.ops(mod.Body)
	if err != nil {
		return nil, p.stats, err
	}
	p.stats.ShiftViews = markShiftViews(ops, mod.Syms, rec)
	obs.Add(rec, "partition/node-routines", float64(p.stats.NodeRoutines))
	obs.Add(rec, "partition/comm-calls", float64(p.stats.CommCalls))
	obs.Add(rec, "partition/host-moves", float64(p.stats.HostMoves))
	obs.Add(rec, "partition/fallbacks", float64(p.stats.Fallbacks))
	obs.Add(rec, "opt/classify-calls", float64(p.cls.Calls))
	dagNodes, cseHits := p.pe.Stats()
	obs.Add(rec, "pe/dag-nodes", float64(dagNodes))
	obs.Add(rec, "pe/cse-hits", float64(cseHits))
	prog := &fe.Program{Name: mod.Name, Ops: ops, Routines: p.routines, Syms: mod.Syms}
	return prog, p.stats, nil
}

type partitioner struct {
	cls      *opt.Classifier
	pe       *pe.Compiler // the one codegen workspace of this compilation
	routines []*peac.Routine
	stats    Stats
	nextID   int
	rec      obs.Recorder
}

func (p *partitioner) ops(a nir.Imp) ([]fe.Op, error) {
	switch a := a.(type) {
	case nil, nir.Skip:
		return nil, nil
	case nir.Program:
		return p.ops(a.Body)
	case nir.WithDomain:
		return p.ops(a.Body)
	case nir.WithDecl:
		return p.ops(a.Body)
	case nir.Sequentially:
		var out []fe.Op
		for _, x := range a.List {
			ops, err := p.ops(x)
			if err != nil {
				return nil, err
			}
			out = append(out, ops...)
		}
		return out, nil
	case nir.Concurrently:
		var out []fe.Op
		for _, x := range a.List {
			ops, err := p.ops(x)
			if err != nil {
				return nil, err
			}
			out = append(out, ops...)
		}
		return out, nil
	case nir.Move:
		return p.move(a)
	case nir.Do:
		body, err := p.ops(a.Body)
		if err != nil {
			return nil, err
		}
		return []fe.Op{fe.DoSerial{S: a.S, Body: body}}, nil
	case nir.IfThenElse:
		then, err := p.ops(a.Then)
		if err != nil {
			return nil, err
		}
		els, err := p.ops(a.Else)
		if err != nil {
			return nil, err
		}
		return []fe.Op{fe.If{Cond: a.Cond, Then: then, Else: els}}, nil
	case nir.While:
		body, err := p.ops(a.Body)
		if err != nil {
			return nil, err
		}
		return []fe.Op{fe.While{Cond: a.Cond, Body: body}}, nil
	case nir.CallImp:
		switch a.Name {
		case "rt_print":
			return []fe.Op{fe.Print{Args: a.Args}}, nil
		case "rt_stop":
			return []fe.Op{fe.Stop{}}, nil
		}
		return nil, fmt.Errorf("partition: unknown runtime call %q", a.Name)
	}
	return nil, fmt.Errorf("partition: unsupported action %T", a)
}

func (p *partitioner) move(m nir.Move) ([]fe.Op, error) {
	v := p.cls.ClassifyMove(m)
	switch v.Class {
	case opt.Compute:
		name := "Pk" + strconv.Itoa(p.nextID)
		p.nextID++
		span := obs.Start(p.rec, "pe-codegen")
		r, err := p.pe.Compile(name, m)
		span.End()
		if err != nil {
			// The PE/NIR compiler accepts a restricted language (§5.2);
			// anything outside it falls back to the host/router path.
			p.stats.Fallbacks++
			p.stats.CommCalls++
			return []fe.Op{fe.Comm{Move: m}}, nil
		}
		p.stats.NodeRoutines++
		// Stamp the routine with the block's explicit data distribution
		// (if any) so the machine models lay its iteration space out the
		// way the !HPF$ directives asked for.
		r.Dist = v.Dist
		p.routines = append(p.routines, r)
		if p.rec != nil { // the counter names are built per routine
			obs.Add(p.rec, "pe/"+r.Name+"/instrs", float64(r.InstrCount()))
			obs.Add(p.rec, "pe/"+r.Name+"/issue-slots", float64(r.IssueSlots()))
			obs.Add(p.rec, "pe/"+r.Name+"/spill-slots", float64(r.SpillSlots))
			obs.Add(p.rec, "pe/"+r.Name+"/flops-per-iter", float64(r.FlopsPerIteration()))
		}
		return []fe.Op{fe.CallNode{Routine: r, Over: m.Over}}, nil
	case opt.Comm:
		p.stats.CommCalls++
		return []fe.Op{fe.Comm{Move: m}}, nil
	default:
		var out []fe.Op
		for _, g := range m.Moves {
			mask := g.Mask
			if nir.EqualValue(mask, nir.True) {
				mask = nil
			}
			out = append(out, fe.Assign{Tgt: g.Tgt, Src: g.Src, Mask: mask})
			p.stats.HostMoves++
		}
		if m.Over != nil && !shape.Serial(m.Over) {
			// Host-classified parallel moves do not occur today; guard
			// against silent misclassification.
			return nil, fmt.Errorf("partition: parallel move classified host")
		}
		return out, nil
	}
}
