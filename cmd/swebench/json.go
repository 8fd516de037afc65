package main

// Machine-readable benchmark output. `swebench -json` measures the §6
// SWE benchmark (the E1 table) with full telemetry and writes one JSON
// record, so experiment tables can be regenerated by scripts instead of
// scraped from stdout.
//
// Schema "f90y-bench/v2" (every field is modeled, so the same flags
// write the same bytes on every run and host; all cycle values are
// modeled CM/2 cycles; every *_classes map and pe_routines sums exactly
// to the matching cycles total):
//
//	{
//	  "schema": "f90y-bench/v2",
//	  "name": "swe",              benchmark kernel
//	  "n": 1024, "steps": 4,      SWE grid edge and time steps
//	  "pes": 2048,                processing elements
//	  "clock_hz": 7e6,            sequencer clock
//	  "gflops": 2.99,             modeled sustained rate
//	  "flops": 123,               floating-point operations executed
//	  "node_calls": 9,            PEAC routine dispatches
//	  "comm_calls": 12,           runtime communication invocations
//	  "cycles": {"host": h, "pe": p, "comm": c, "total": h+p+c},
//	  "pe_classes":   {"vector-arith": ..., "divide": ..., ...},
//	  "comm_classes": {"grid": ..., "router": ..., "reduce": ...},
//	  "host_classes": {"issue": ..., "scalar": ..., ...},
//	  "pe_routines":  {"Pk0": ..., ...},
//	  "baselines": {"starlisp": 1.89, "cmf": 2.79},       modeled GFLOPS
//	  "profile": {"total_cycles": p, "hot_lines": [{"file", "line",
//	      "cycles"}, ...]},               source-line attribution summary:
//	      total_cycles equals cycles.pe exactly and the five hottest lines
//	      ride along (full artifacts: f90yrun -profile DEST),
//	  "faults": {...}                     only when -faults injected a plan:
//	      spec, injected counts per kind, retries, retry_cycles, degraded,
//	      dead_pes
//	}
//
// Wall-clock is not this record's business: the repository benchmark
// (bench/, BENCHMARK.json) measures it, with variance.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/driver"
	"f90y/internal/faults"
	"f90y/internal/obs/profile"
	"f90y/internal/starlisp"
	"f90y/internal/workload"
)

type benchRecord struct {
	Schema      string             `json:"schema"`
	Name        string             `json:"name"`
	N           int                `json:"n"`
	Steps       int                `json:"steps"`
	PEs         int                `json:"pes"`
	ClockHz     float64            `json:"clock_hz"`
	GFLOPS      float64            `json:"gflops"`
	Flops       int64              `json:"flops"`
	NodeCalls   int                `json:"node_calls"`
	CommCalls   int                `json:"comm_calls"`
	Cycles      benchCycles        `json:"cycles"`
	PEClasses   map[string]float64 `json:"pe_classes"`
	CommClasses map[string]float64 `json:"comm_classes"`
	HostClasses map[string]float64 `json:"host_classes"`
	PERoutines  map[string]float64 `json:"pe_routines"`
	Baselines   benchBaselines     `json:"baselines"`
	Faults      *benchFaults       `json:"faults,omitempty"`
	Profile     *benchProfile      `json:"profile,omitempty"`
}

// benchProfile summarizes the run's source-line cycle attribution: the
// attribution total (equals cycles.pe exactly — attribution conserves
// cycles) and the five hottest source lines. The full profile is
// f90yrun -profile DEST; this summary keeps the record self-contained for
// scripts.
type benchProfile struct {
	TotalCycles float64        `json:"total_cycles"`
	HotLines    []benchHotLine `json:"hot_lines"`
}

// benchHotLine is one aggregated source line in the hot-line ranking.
type benchHotLine struct {
	File   string  `json:"file"`
	Line   int     `json:"line"`
	Cycles float64 `json:"cycles"`
}

// benchFaults records what the fault plane injected and what recovery
// cost; present only when -faults attached a plan.
type benchFaults struct {
	Spec        string           `json:"spec,omitempty"`
	Seed        int64            `json:"seed"`
	Injected    map[string]int64 `json:"injected"`
	Retries     int64            `json:"retries"`
	RetryCycles float64          `json:"retry_cycles"`
	Degraded    int64            `json:"degraded"`
	DeadPEs     []int            `json:"dead_pes,omitempty"`
}

type benchCycles struct {
	Host  float64 `json:"host"`
	PE    float64 `json:"pe"`
	Comm  float64 `json:"comm"`
	Total float64 `json:"total"`
}

type benchBaselines struct {
	StarLisp float64 `json:"starlisp"`
	CMF      float64 `json:"cmf"`
}

// buildRecord runs the SWE benchmark on the three measured systems —
// Fortran-90-Y (under an optional fault plan), the *Lisp model, the CM
// Fortran model — and assembles the record. Separated from the file
// write so tests can assert record determinism directly.
func buildRecord(n, steps int, plan *faults.Plan) (benchRecord, error) {
	src := workload.SWE(n, steps)
	ctx := context.Background()
	cfg := f90y.DefaultConfig()

	var ctl *cm2.Control
	if plan != nil {
		ctl = &cm2.Control{Faults: faults.New(plan, nil)}
	}
	run := func(c f90y.Config, ctl *cm2.Control) (*cm2.Result, error) {
		comp, err := f90y.CompileCtx(ctx, "swe.f90", src, c)
		if err != nil {
			return nil, err
		}
		return comp.Run(ctx, ctl)
	}
	res, err := run(cfg, ctl)
	if err != nil {
		return benchRecord{}, err
	}
	_, sl := starlisp.RunSWE(n, steps, starlisp.DefaultModel)
	cmfRes, err := run(f90y.CMFConfig(), nil)
	if err != nil {
		return benchRecord{}, err
	}

	rec := benchRecord{
		Schema:    "f90y-bench/v2",
		Name:      "swe",
		N:         n,
		Steps:     steps,
		PEs:       driver.Targets[0].Units,
		ClockHz:   driver.Targets[0].ClockHz,
		GFLOPS:    res.GFLOPS(),
		Flops:     res.Flops,
		NodeCalls: res.NodeCalls,
		CommCalls: res.CommCalls,
		Cycles: benchCycles{
			Host:  res.HostCycles,
			PE:    res.PECycles,
			Comm:  res.CommCycles,
			Total: res.TotalCycles(),
		},
		PEClasses:   res.PEClassCycles,
		CommClasses: res.CommClassCycles,
		HostClasses: res.HostClassCycles,
		PERoutines:  res.PERoutineCycles,
		Baselines: benchBaselines{
			StarLisp: sl.GFLOPS(starlisp.DefaultModel.ClockHz),
			CMF:      cmfRes.GFLOPS(),
		},
	}
	if s := res.Faults; s != nil {
		rec.Faults = &benchFaults{
			Spec:        plan.Spec,
			Seed:        plan.Seed,
			Injected:    s.Injected,
			Retries:     s.Retries,
			RetryCycles: s.RetryCycles,
			Degraded:    s.Degraded,
			DeadPEs:     s.DeadPEs,
		}
	}
	if len(res.PELineCycles) > 0 {
		prof := profile.New(res.PELineCycles, map[string]string{"swe.f90": src})
		bp := &benchProfile{TotalCycles: prof.Total()}
		for _, h := range prof.HotLines(5) {
			bp.HotLines = append(bp.HotLines, benchHotLine{File: h.File, Line: h.Line, Cycles: h.Cycles})
		}
		rec.Profile = bp
	}
	return rec, nil
}

// writeJSON runs the SWE benchmark and writes the record to path
// (default BENCH_swe_n<N>_s<steps>.json), printing the path on success.
func writeJSON(path string, n, steps int) {
	plan, err := faults.ParseSpec(*flagFaults)
	if err != nil {
		die(err)
	}
	rec, err := buildRecord(n, steps, plan)
	if err != nil {
		die(err)
	}
	if err := emit(os.Stdout, path, fmt.Sprintf("BENCH_swe_n%d_s%d.json", n, steps), rec); err != nil {
		die(err)
	}
}

// emit writes a mode's record to path (def when empty) and names the
// file on w.
func emit(w io.Writer, path, def string, rec any) error {
	if path == "" {
		path = def
	}
	err := writeRecord(path, rec)
	if err == nil {
		fmt.Fprintln(w, path)
	}
	return err
}

// writeRecord writes any record as indented JSON.
func writeRecord(path string, rec any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeRecordTo(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeRecordTo encodes any record as indented JSON onto w.
func writeRecordTo(w io.Writer, rec any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}
