package main

// Chaos-soak mode. `swebench -soak N` sweeps the seven experiment
// kernels (at reduced sizes) through the differential oracle and the
// fault-invariance chaos harness: each program is first verified across
// the reference interpreter and every machine of the target table, then
// run under N seeds x the default fault plans x those machines,
// asserting that every recovered fault leaves the numerical results
// bit-identical to the unfaulted baseline. Violations are minimized to a
// reproducer spec written under -repro-dir and fail the command with
// exit status 1.
//
// Schema "f90y-soak/v1" (-soak N -json):
//
//	{
//	  "schema": "f90y-soak/v1",
//	  "seeds": N,                       seeds swept per plan
//	  "plans": ["seed=0,drop=0.05,...], the swept plans, CLI spec syntax
//	  "backends": ["cm2", "cm5"],       the target table's names
//	  "programs": [{"name": "swe", "vars": 9, "elems": 1234}, ...],
//	      per-program oracle verification size (interp vs cm2 vs cm5)
//	  "runs": 448,                      faulted runs compared to baselines
//	  "violations": [...],              fault-invariance failures (want [])
//	  "errors": ["..."]                 runs that failed outright (want [])
//	}

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"f90y/internal/driver"
	"f90y/internal/oracle"
	"f90y/internal/workload"
)

// soakPrograms are the soak subjects: the suite's seven kernels, and the
// shifts by a DO index, at sizes small enough to sweep hundreds of runs
// in seconds.
func soakPrograms() []oracle.Program {
	return []oracle.Program{
		{Name: "swe", File: "swe.f90", Source: workload.SWE(16, 2)},
		{Name: "fig9", File: "fig9.f90", Source: workload.Fig9(16)},
		{Name: "fig10", File: "fig10.f90", Source: workload.Fig10(16)},
		{Name: "fig11", File: "fig11.f90", Source: workload.Fig11(16, 8)},
		{Name: "fig12", File: "fig12.f90", Source: workload.Fig12(16)},
		{Name: "stencil", File: "stencil.f90", Source: workload.Stencil(16, 2)},
		{Name: "spill", File: "spill.f90", Source: workload.SpillKernel(64, 10)},
		{Name: "doshift", File: "doshift.f90", Source: workload.DoShift(16)},
	}
}

type soakProgram struct {
	Name  string `json:"name"`
	Vars  int    `json:"vars"`
	Elems int    `json:"elems"`
}

type soakRecord struct {
	Schema     string             `json:"schema"`
	Seeds      int                `json:"seeds"`
	Plans      []string           `json:"plans"`
	Backends   []string           `json:"backends"`
	Programs   []soakProgram      `json:"programs"`
	Runs       int                `json:"runs"`
	Violations []oracle.Violation `json:"violations"`
	Errors     []string           `json:"errors,omitempty"`
}

// runSoak verifies then chaos-soaks the suite. It returns the number of
// failures (violations + verify failures + run errors); the caller
// exits nonzero when it is not 0.
func runSoak(w io.Writer, seeds, workers int, reproDir string, asJSON bool, outPath string) (int, error) {
	progs := soakPrograms()
	svc := driver.New(workers)
	svc.MaxCycles = 2_000_000_000 // fault-induced runaways must not hang the sweep

	rec := soakRecord{Schema: "f90y-soak/v1", Seeds: seeds}
	for _, t := range driver.Targets {
		rec.Backends = append(rec.Backends, t.Name)
	}
	backends := strings.Join(rec.Backends, ", ")
	for _, p := range oracle.DefaultPlans() {
		rec.Plans = append(rec.Plans, p.SpecString())
	}

	// Phase 1: differential verification, interp vs every target.
	failures := 0
	for _, p := range progs {
		vrep, err := oracle.Verify(p.File, p.Source, oracle.Options{MaxCycles: svc.MaxCycles})
		if err != nil {
			failures++
			rec.Errors = append(rec.Errors, fmt.Sprintf("verify %s: %v", p.Name, err))
			if !asJSON {
				fmt.Fprintf(w, "verify %-8s FAIL  %v\n", p.Name, err)
			}
			continue
		}
		rec.Programs = append(rec.Programs, soakProgram{Name: p.Name, Vars: vrep.Vars, Elems: vrep.Elems})
		if !asJSON {
			fmt.Fprintf(w, "verify %-8s ok    %d vars, %d values agree across interp, %s\n",
				p.Name, vrep.Vars, vrep.Elems, backends)
		}
	}

	// Phase 2: fault-invariance sweep.
	seedList := make([]int64, seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}
	srep, err := oracle.Soak(context.Background(), svc, progs, oracle.SoakOptions{
		Seeds:     seedList,
		MaxCycles: svc.MaxCycles,
		ReproDir:  reproDir,
	})
	if err != nil {
		return failures + 1, err
	}
	rec.Runs = srep.Runs
	rec.Violations = srep.Violations
	rec.Errors = append(rec.Errors, srep.Errors...)
	failures += len(srep.Violations) + len(srep.Errors)

	if asJSON {
		if rec.Violations == nil {
			rec.Violations = []oracle.Violation{}
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return failures, err
		}
		data = append(data, '\n')
		if outPath == "" || outPath == "-" {
			_, err = w.Write(data)
			return failures, err
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return failures, err
		}
		fmt.Fprintln(w, outPath)
		return failures, nil
	}

	fmt.Fprintf(w, "soak: %d programs x %d backends x %d seeds x %d plans = %d faulted runs\n",
		len(progs), len(rec.Backends), seeds, len(oracle.DefaultPlans()), srep.Runs)
	for _, v := range srep.Violations {
		fmt.Fprintf(w, "VIOLATION %s/%s seed=%d spec=%q: %s", v.Program, v.Backend, v.Seed, v.Spec, v.Divergence)
		if v.ReproPath != "" {
			fmt.Fprintf(w, " (repro: %s)", v.ReproPath)
		}
		fmt.Fprintln(w)
	}
	for _, e := range srep.Errors {
		fmt.Fprintf(w, "ERROR %s\n", e)
	}
	if failures == 0 {
		fmt.Fprintln(w, "soak: fault invariance holds — 0 divergences")
	} else {
		fmt.Fprintf(w, "soak: %d failures\n", failures)
	}
	return failures, nil
}
