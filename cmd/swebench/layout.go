package main

// The layout sweep (-layout-sweep): the router-heavy kernel trio
// (transpose ping-pong, FFT butterfly, irregular gather) is compiled
// and run under three data distributions each — the directive-free
// all-BLOCK default, an explicit CYCLIC layout, and an ALIGN'd layout —
// on the default CM/2 model, every row priced by the one rt.CommCost
// path. The printed table and the "f90y-layout/v1" record show, per
// (kernel, layout), the modeled cycle total, the NEWS-grid/router/reduce
// split of the communication cycles, and the communication fraction;
// per kernel, the best layout and the worst/best cycle spread. A row
// charged more than a router pass per comm call fails the command: the
// price of leaving the grid caps what staying on it may cost.
//
// Schema "f90y-layout/v1" (all cycle values are modeled CM/2 cycles;
// grid+router+reduce sums exactly to comm_cycles; the record carries no
// wall-clock fields, so repeated sweeps are byte-identical):
//
//	{
//	  "schema": "f90y-layout/v1",
//	  "pes": 2048,                 processing elements
//	  "n": 65536, "iters": 2,      sweep problem size and iterations
//	  "any_non_block_best": true,  some kernel's best layout isn't BLOCK
//	  "max_spread": 3.4,           largest worst/best cycle ratio
//	  "kernels": [{
//	    "kernel": "fft", "n": 65536, "iters": 16,
//	    "best_layout": "cyclic", "spread": 3.4,
//	    "rows": [{
//	      "layout": "block", "directives": [...],
//	      "cycles": c, "comm_cycles": m,
//	      "grid": g, "router": r, "reduce": d,   g+r+d == m
//	      "comm_fraction": m/c,
//	      "verified": true                       only with -layout-verify
//	    }, ...]
//	  }, ...]
//	}
//
// With -layout-verify each (kernel, layout) pair is additionally pushed
// through the three-way differential oracle (reference interpreter vs
// CM-2 vs CM-5) at a reduced problem size before the sweep row is
// accepted; a divergence fails the command.

import (
	"context"
	"fmt"
	"io"

	"f90y"
	"f90y/internal/driver"
	"f90y/internal/oracle"
	"f90y/internal/shape"
	"f90y/internal/workload"
)

type layoutRow struct {
	Layout       string   `json:"layout"`
	Directives   []string `json:"directives,omitempty"`
	Cycles       float64  `json:"cycles"`
	CommCycles   float64  `json:"comm_cycles"`
	Grid         float64  `json:"grid"`
	Router       float64  `json:"router"`
	Reduce       float64  `json:"reduce"`
	CommFraction float64  `json:"comm_fraction"`
	Verified     bool     `json:"verified,omitempty"`
}

type layoutKernel struct {
	Kernel     string      `json:"kernel"`
	N          int         `json:"n"`
	Iters      int         `json:"iters"`
	BestLayout string      `json:"best_layout"`
	Spread     float64     `json:"spread"`
	Rows       []layoutRow `json:"rows"`
}

type layoutRecord struct {
	Schema          string         `json:"schema"`
	PEs             int            `json:"pes"`
	N               int            `json:"n"`
	Iters           int            `json:"iters"`
	AnyNonBlockBest bool           `json:"any_non_block_best"`
	MaxSpread       float64        `json:"max_spread"`
	Kernels         []layoutKernel `json:"kernels"`
}

// layoutVariant is one distribution to sweep: the directive lines are
// spliced into the kernel source verbatim (nil = directive-free BLOCK).
type layoutVariant struct {
	name string
	dirs []string
}

// layoutCase is one kernel of the trio: the generator, the sweep-size
// parameters, the (smaller) oracle-verification parameters, and the
// distributions to sweep.
type layoutCase struct {
	kernel           string
	gen              func(a, b int, dirs []string) string
	a, b             int // sweep generator arguments
	verifyA, verifyB int // -layout-verify generator arguments
	variants         []layoutVariant
}

// layoutCases builds the trio for a sweep over n elements. The
// transpose works an edge×edge grid with edge² ≤ n; the FFT runs
// log2(n) butterfly stages so the late long-stride shifts dominate.
func layoutCases(n, iters int) []layoutCase {
	edge := 1
	for (edge*2)*(edge*2) <= n {
		edge *= 2
	}
	stages := 0
	for 1<<stages < n {
		stages++
	}
	return []layoutCase{
		{
			kernel: "transpose", gen: workload.LayoutTranspose,
			a: edge, b: iters, verifyA: 16, verifyB: 2,
			variants: []layoutVariant{
				{"block", nil},
				{"cyclic", []string{
					"!HPF$ DISTRIBUTE a(CYCLIC, CYCLIC)",
					"!HPF$ ALIGN b WITH a",
					"!HPF$ ALIGN c WITH a",
				}},
				{"aligned", []string{
					"!HPF$ DISTRIBUTE a(BLOCK, *)",
					"!HPF$ DISTRIBUTE b(*, BLOCK)",
					"!HPF$ ALIGN c WITH b",
				}},
			},
		},
		{
			kernel: "fft", gen: workload.LayoutFFT,
			a: n, b: stages, verifyA: 64, verifyB: 6,
			variants: []layoutVariant{
				{"block", nil},
				{"cyclic", []string{
					"!HPF$ DISTRIBUTE x(CYCLIC)",
					"!HPF$ ALIGN y WITH x",
				}},
				{"aligned", []string{
					"!HPF$ PROCESSORS procs(16)",
					"!HPF$ DISTRIBUTE x(CYCLIC(2)) ONTO procs",
					"!HPF$ ALIGN y WITH x",
				}},
			},
		},
		{
			kernel: "gather", gen: workload.LayoutGather,
			a: n, b: iters, verifyA: 64, verifyB: 2,
			variants: []layoutVariant{
				{"block", nil},
				{"cyclic", []string{
					"!HPF$ DISTRIBUTE a(CYCLIC)",
					"!HPF$ ALIGN b WITH a",
				}},
				{"aligned", []string{
					"!HPF$ DISTRIBUTE a(CYCLIC(4))",
					"!HPF$ ALIGN b WITH a",
					"!HPF$ ALIGN idx WITH a",
				}},
			},
		},
	}
}

// buildLayoutRecord runs the sweep and assembles the record. Separated
// from printing and the file write so tests can assert determinism.
func buildLayoutRecord(svc *driver.Service, n, iters int, verify bool) (layoutRecord, error) {
	rec := layoutRecord{
		Schema: "f90y-layout/v1",
		PEs:    driver.Targets[0].Units,
		N:      n,
		Iters:  iters,
	}
	for _, c := range layoutCases(n, iters) {
		k := layoutKernel{Kernel: c.kernel, N: c.a, Iters: c.b}
		for _, v := range c.variants {
			if verify {
				small := c.gen(c.verifyA, c.verifyB, v.dirs)
				rep, err := oracle.Verify(c.kernel+"-"+v.name+".f90", small, oracle.Options{})
				if err != nil {
					return rec, fmt.Errorf("%s/%s: verify: %w", c.kernel, v.name, err)
				}
				if rep.Divergence != nil {
					return rec, fmt.Errorf("%s/%s: divergence: %s", c.kernel, v.name, rep.Divergence)
				}
			}
			file := fmt.Sprintf("%s-%s.f90", c.kernel, v.name)
			res := svc.Run(context.Background(), driver.Job{
				Name: file, File: file,
				Source: c.gen(c.a, c.b, v.dirs),
				Config: f90y.DefaultConfig(),
			})
			if res.Err != nil {
				return rec, fmt.Errorf("%s/%s: %w", c.kernel, v.name, res.Err)
			}
			r := res.Result
			// What the row's comm calls cost if each took a router
			// pass of the largest subgrid the row laid out.
			sub := 0
			for _, a := range r.Store.Arrays {
				sub = max(sub, shape.Distribute(shape.Of(a.Ext...), rec.PEs, a.Dist).SubgridSize())
			}
			if bound := float64(r.CommCalls) * driver.Targets[0].CommCost.RouterPass(sub); r.CommCycles > bound {
				return rec, fmt.Errorf("%s/%s: %v comm cycles, above the %v its %d comm calls cost on the router",
					c.kernel, v.name, r.CommCycles, bound, r.CommCalls)
			}
			total := r.TotalCycles()
			row := layoutRow{
				Layout:     v.name,
				Directives: v.dirs,
				Cycles:     total,
				CommCycles: r.CommCycles,
				Grid:       r.CommClassCycles["grid"],
				Router:     r.CommClassCycles["router"],
				Reduce:     r.CommClassCycles["reduce"],
				Verified:   verify,
			}
			if total > 0 {
				row.CommFraction = r.CommCycles / total
			}
			k.Rows = append(k.Rows, row)
		}
		best, worst := k.Rows[0], k.Rows[0]
		for _, row := range k.Rows[1:] {
			if row.Cycles < best.Cycles {
				best = row
			}
			if row.Cycles > worst.Cycles {
				worst = row
			}
		}
		k.BestLayout = best.Layout
		if best.Cycles > 0 {
			k.Spread = worst.Cycles / best.Cycles
		}
		if k.BestLayout != "block" {
			rec.AnyNonBlockBest = true
		}
		if k.Spread > rec.MaxSpread {
			rec.MaxSpread = k.Spread
		}
		rec.Kernels = append(rec.Kernels, k)
	}
	return rec, nil
}

// The sweep's one size: the problem size (elements) and kernel
// iterations LAYOUT_baseline.json is recorded at.
const layoutN, layoutIters = 65536, 2

// runLayoutSweep prints the sweep table to w and writes the record to
// path (default BENCH_layout_n65536_i2.json).
func runLayoutSweep(w io.Writer, path string, verify bool) error {
	svc := driver.New(1)
	rec, err := buildLayoutRecord(svc, layoutN, layoutIters, verify)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Layout sweep: !HPF$ distribution plane, %d PEs, n=%d, iters=%d\n", rec.PEs, layoutN, layoutIters)
	for _, k := range rec.Kernels {
		fmt.Fprintf(w, "\n%s (n=%d, iters=%d): best=%s spread=%.2fx\n", k.Kernel, k.N, k.Iters, k.BestLayout, k.Spread)
		fmt.Fprintf(w, "  %-10s %-14s %-14s %-12s %-12s %-10s %s\n",
			"layout", "cycles", "comm", "grid", "router", "reduce", "comm%")
		for _, r := range k.Rows {
			fmt.Fprintf(w, "  %-10s %-14.0f %-14.0f %-12.0f %-12.0f %-10.0f %.1f%%\n",
				r.Layout, r.Cycles, r.CommCycles, r.Grid, r.Router, r.Reduce, 100*r.CommFraction)
		}
	}
	fmt.Fprintf(w, "\nany_non_block_best=%t max_spread=%.2fx\n", rec.AnyNonBlockBest, rec.MaxSpread)
	return emit(w, path, fmt.Sprintf("BENCH_layout_n%d_i%d.json", layoutN, layoutIters), rec)
}
