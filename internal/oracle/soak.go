package oracle

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/driver"
	"f90y/internal/faults"
)

// The chaos-soak harness sweeps seeds x fault plans x machines and
// asserts the fault-invariance property: every fault the runtime
// recovers from — dropped or corrupted transfers (retransmitted),
// delayed transfers, host stalls, PE deaths absorbed by graceful
// degradation — may change the modeled cycle totals but must never
// change numerical results. A faulted run is therefore compared
// BIT-EXACT (0 ULPs) against the unfaulted baseline on the same
// backend; any difference is a violation, minimized to the smallest
// still-diverging plan and written to disk as a reproducer spec.

// Program is one soak subject.
type Program struct {
	Name   string
	File   string
	Source string
}

// SoakOptions configures one chaos sweep.
type SoakOptions struct {
	// Seeds are the injector seeds swept per plan; nil means {1, 2, 3}.
	Seeds []int64
	// Plans are the fault plans swept per seed (each plan's Seed field
	// is overwritten by the sweep); nil means DefaultPlans().
	Plans []faults.Plan
	// MaxCycles bounds every run, baseline and faulted alike, so a
	// fault-induced runaway cannot hang the sweep; zero disables.
	MaxCycles float64
	// ReproDir receives one f90y-repro/v1 JSON file per violation;
	// empty disables reproducer files.
	ReproDir string
	// Targets are the machines swept; nil means the table,
	// driver.Targets.
	Targets []*cm2.Target
}

// Violation is one fault-invariance failure: a recovered-fault run
// whose results differ from the baseline.
type Violation struct {
	Program    string      `json:"program"`
	Backend    string      `json:"backend"`
	Seed       int64       `json:"seed"`
	Spec       string      `json:"spec"` // minimized plan, CLI spec syntax
	Divergence *Divergence `json:"divergence"`
	ReproPath  string      `json:"repro,omitempty"`
}

// SoakReport summarizes one sweep.
type SoakReport struct {
	Programs   int         `json:"programs"`
	Runs       int         `json:"runs"` // faulted runs compared (baselines excluded)
	Violations []Violation `json:"violations"`
	// Errors records runs that failed outright (fatal injected faults,
	// budget kills, transfer exhaustion). A run error is not a
	// fault-invariance violation — the property constrains only runs
	// that complete — but zero is still the expected count under
	// recoverable default plans.
	Errors []string `json:"errors,omitempty"`
}

// DefaultPlans are the stock chaos plans: transfer-level faults alone,
// then combined, then PE deaths under graceful degradation. All are
// recoverable — each run should complete and match its baseline.
func DefaultPlans() []faults.Plan {
	return []faults.Plan{
		{Drop: 0.05, Delay: 0.05},
		{Corrupt: 0.05},
		{Drop: 0.02, Corrupt: 0.02, Delay: 0.02, Stall: 0.01},
		{PEKill: 0.02, Stall: 0.02},
	}
}

// Soak sweeps each program across every target under seeds x plans,
// comparing every faulted run bit-exact against the per-target baseline
// on svc's worker pool. Violations are minimized and (when ReproDir is
// set) written as reproducer specs. The returned error covers harness
// failures only; violations and run errors are in the report.
func Soak(ctx context.Context, svc *driver.Service, progs []Program, o SoakOptions) (*SoakReport, error) {
	seeds := o.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	plans := o.Plans
	if len(plans) == 0 {
		plans = DefaultPlans()
	}
	cfg := f90y.DefaultConfig()
	targets := o.Targets
	if targets == nil {
		targets = driver.Targets
	}

	// One flat batch: per (program, backend) a baseline job plus
	// seeds x plans faulted jobs. Each faulted job gets its own
	// injector — injectors are stateful and not concurrency-safe.
	type jobMeta struct {
		prog     int
		target   *cm2.Target
		seed     int64
		plan     faults.Plan
		baseline bool
	}
	var jobs []driver.Job
	var metas []jobMeta
	addJob := func(m jobMeta) {
		ctl := cm2.Control{MaxCycles: o.MaxCycles}
		if !m.baseline {
			p := m.plan
			p.Seed = m.seed
			ctl.Faults = faults.New(&p, nil)
		}
		jobs = append(jobs, driver.Job{
			Name:    fmt.Sprintf("%s/%s", progs[m.prog].Name, m.target.Name),
			File:    progs[m.prog].File,
			Source:  progs[m.prog].Source,
			Config:  cfg,
			Machine: m.target,
			Ctl:     ctl,
		})
		metas = append(metas, m)
	}
	for pi := range progs {
		for _, t := range targets {
			addJob(jobMeta{prog: pi, target: t, baseline: true})
			for _, seed := range seeds {
				for _, plan := range plans {
					addJob(jobMeta{prog: pi, target: t, seed: seed, plan: plan})
				}
			}
		}
	}
	results := svc.RunBatch(ctx, jobs)

	rep := &SoakReport{Programs: len(progs)}
	// Each (program, target) group is its baseline, then its faulted runs.
	var base *cm2.Result
	for i, m := range metas {
		if m.baseline {
			if base = results[i].Result; base == nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s baseline: %v", jobs[i].Name, results[i].Err))
			}
			continue
		}
		if base == nil {
			continue // baseline failed; already recorded
		}
		rep.Runs++
		if err := results[i].Err; err != nil {
			rep.Errors = append(rep.Errors,
				fmt.Sprintf("%s seed=%d %s: %v", jobs[i].Name, m.seed, specOf(withSeed(m.plan, m.seed)), err))
			continue
		}
		d := diffResults(m.target.Name+"/baseline", m.target.Name+"/faulted", base, results[i].Result)
		if d == nil {
			continue
		}
		prog := progs[m.prog]
		minimized := minimize(withSeed(m.plan, m.seed), func(cand faults.Plan) bool {
			r := svc.Run(ctx, driver.Job{
				Name: jobs[i].Name, File: prog.File, Source: prog.Source,
				Config: cfg, Machine: m.target,
				Ctl: cm2.Control{MaxCycles: o.MaxCycles, Faults: faults.New(&cand, nil)},
			})
			if r.Err != nil {
				return false
			}
			return diffResults("a", "b", base, r.Result) != nil
		})
		v := Violation{
			Program: prog.Name, Backend: m.target.Name, Seed: m.seed,
			Spec: specOf(minimized), Divergence: d,
		}
		if o.ReproDir != "" {
			path, err := writeRepro(o.ReproDir, v, prog.Source)
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("repro write: %v", err))
			} else {
				v.ReproPath = path
			}
		}
		rep.Violations = append(rep.Violations, v)
	}
	return rep, nil
}

func withSeed(p faults.Plan, seed int64) faults.Plan {
	p.Seed = seed
	return p
}

// diffResults compares two completed runs of one program on one
// backend bit for bit: output byte for byte, every array lane and scalar
// by Verify's rule.
func diffResults(an, bn string, a, b *cm2.Result) *Divergence {
	d, _, _ := compare(resultState(an, a), resultState(bn, b), nil)
	return d
}

// resultState normalizes a run result without a symbol table: every
// store entry, sorted by name (faulted and baseline runs of one program
// share one compiled artifact, so the stores are structurally equal).
// Shift temporaries the compiler marked as views are skipped, by the
// flag: once their last reader has run their bytes are not program
// state — a copy taken at shift time under the injector, a view of a
// since-overwritten source without it. Every other temporary compares.
func resultState(name string, r *cm2.Result) *state {
	s := newState(name, r.Output)
	for _, n := range sortedNames(r.Store.Arrays) {
		a := r.Store.Arrays[n]
		if a.ShiftView {
			continue
		}
		s.declare(n, a.Kind)
		s.setArray(n, a.Data, a.Ext, a.Lo)
	}
	for _, n := range sortedNames(r.Store.Scalars) {
		s.declare(n, r.Store.Kinds[n])
		s.vals[n] = []float64{r.Store.Scalars[n]}
	}
	return s
}

// minimize greedily shrinks a diverging plan: each fault channel is
// zeroed in turn and kept zeroed while the divergence persists, so the
// reproducer names only the channels that matter. diverges must be
// deterministic (it re-runs the faulted job under the candidate plan).
func minimize(plan faults.Plan, diverges func(faults.Plan) bool) faults.Plan {
	channels := []struct {
		active func(faults.Plan) bool
		zero   func(*faults.Plan)
	}{
		{func(p faults.Plan) bool { return p.Drop != 0 }, func(p *faults.Plan) { p.Drop = 0 }},
		{func(p faults.Plan) bool { return p.Corrupt != 0 }, func(p *faults.Plan) { p.Corrupt = 0 }},
		{func(p faults.Plan) bool { return p.Delay != 0 }, func(p *faults.Plan) { p.Delay = 0 }},
		{func(p faults.Plan) bool { return p.Stall != 0 }, func(p *faults.Plan) { p.Stall = 0 }},
		{func(p faults.Plan) bool { return p.PEKill != 0 }, func(p *faults.Plan) { p.PEKill = 0 }},
		{func(p faults.Plan) bool { return len(p.Events) > 0 }, func(p *faults.Plan) { p.Events = nil }},
	}
	for _, c := range channels {
		if !c.active(plan) {
			continue
		}
		cand := plan
		c.zero(&cand)
		if diverges(cand) {
			plan = cand
		}
	}
	return plan
}

// specOf renders a plan in the CLI -faults spec syntax, producing a
// string faults.ParseSpec accepts, so a reproducer can be replayed
// directly:
//
//	f90yrun -faults "$(jq -r .spec repro.json)" prog.f90
func specOf(p faults.Plan) string { return p.SpecString() }

// repro is the f90y-repro/v1 reproducer document: everything needed to
// replay one fault-invariance violation.
type repro struct {
	Schema     string      `json:"schema"`
	Program    string      `json:"program"`
	Backend    string      `json:"backend"`
	Seed       int64       `json:"seed"`
	Spec       string      `json:"spec"`
	Source     string      `json:"source"`
	Divergence *Divergence `json:"divergence"`
}

// writeRepro persists one violation as a reproducer spec and returns
// the path.
func writeRepro(dir string, v Violation, source string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	doc := repro{
		Schema: "f90y-repro/v1", Program: v.Program, Backend: v.Backend,
		Seed: v.Seed, Spec: v.Spec, Source: source, Divergence: v.Divergence,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", sanitize(v.Program), v.Backend, v.Seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
