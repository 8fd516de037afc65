package opt

import (
	"f90y/internal/lower"
	"f90y/internal/nir"
	"f90y/internal/obs"
)

// Pass is one named NIR transformation. The optimizer is structured as
// an ordered pass list so each pass reports its own span and counters:
// every future transformation slots in here and is automatically
// visible in traces and metric reports.
type Pass struct {
	// Name identifies the pass in spans ("opt/<name>") and reports.
	Name string
	run  func(o *optimizer, a nir.Imp) nir.Imp
}

// passes returns the pass list selected by opts, in execution order.
func passes(opts Options) []Pass {
	var out []Pass
	if opts.PadSections {
		out = append(out, Pass{Name: "pad-sections", run: (*optimizer).padAll})
	}
	// Domain blocking always runs: it normalizes the statement-list
	// structure (flattening nested sequences, dropping skips) and, when
	// opts.BlockDomains is set, additionally fuses like-shape compute
	// moves, hoists communications, and merges independent serial loops.
	out = append(out, Pass{Name: "block-domains", run: (*optimizer).rewrite})
	return out
}

// OptimizeObs runs the NIR transformation stage over a module, returning
// the rewritten module (Body and Prog replaced) and statistics. The
// input module is not modified. Each pass emits one "opt/<name>" span,
// and the final statistics are emitted as counters; rec may be nil.
func OptimizeObs(mod *lower.Module, opts Options, rec obs.Recorder) (*lower.Module, Stats) {
	o := &optimizer{cls: &Classifier{Syms: mod.Syms}, opts: opts, verdicts: map[*nir.GuardedMove]Verdict{}}
	body := mod.Body
	for _, p := range passes(opts) {
		span := obs.Start(rec, "opt/"+p.Name)
		body = p.run(o, body)
		span.End()
	}
	obs.Add(rec, "opt/padded-moves", float64(o.stats.PaddedMoves))
	obs.Add(rec, "opt/fused-moves", float64(o.stats.FusedMoves))
	obs.Add(rec, "opt/hoisted-comms", float64(o.stats.HoistedComms))
	obs.Add(rec, "opt/fused-loops", float64(o.stats.FusedLoops))
	obs.Add(rec, "opt/classify-calls", float64(o.cls.Calls))
	out := *mod
	out.Body = body
	out.Prog = replaceBody(mod.Prog, body)
	return &out, o.stats
}

// padAll is the pad-sections pass body: every compute-classified
// aligned-section move becomes a full-shape masked move (Fig. 10).
// padMove itself checks the Compute classification, so the traversal
// simply offers it every move — and keeps the verdict of each move it
// leaves alone for the blocking pass.
func (o *optimizer) padAll(a nir.Imp) nir.Imp {
	switch a := a.(type) {
	case nir.Move:
		v, secs := o.cls.classifyMove(a)
		if padded, did := padMove(a, v, secs); did {
			o.stats.PaddedMoves++
			return padded
		}
		if len(a.Moves) > 0 {
			o.verdicts[&a.Moves[0]] = v
		}
		return a
	case nir.Sequentially:
		list := make([]nir.Imp, len(a.List))
		for i, x := range a.List {
			list[i] = o.padAll(x)
		}
		a.List = list
		return a
	case nir.Concurrently:
		list := make([]nir.Imp, len(a.List))
		for i, x := range a.List {
			list[i] = o.padAll(x)
		}
		a.List = list
		return a
	case nir.IfThenElse:
		a.Then = o.padAll(a.Then)
		a.Else = o.padAll(a.Else)
		return a
	case nir.While:
		a.Body = o.padAll(a.Body)
		return a
	case nir.Do:
		a.Body = o.padAll(a.Body)
		return a
	case nir.WithDecl:
		a.Body = o.padAll(a.Body)
		return a
	case nir.WithDomain:
		a.Body = o.padAll(a.Body)
		return a
	case nir.Program:
		a.Body = o.padAll(a.Body)
		return a
	default:
		return a
	}
}
