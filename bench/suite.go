package main

// Suite mode: every workload in one table, and with -repeat the spread
// of each metric over the sets against the bounds BENCHMARK.json fixes.

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

type seriesKey struct{ workload, metric string }

// runSuite runs every workload repeat times. The traced run, which has no
// bounds to check, runs once per workload, in the first set.
func runSuite(e *env, seed int64, window time.Duration, trace bool, repeat int) int {
	ok := true
	series := map[seriesKey][]float64{}
	for set := 0; set < repeat; set++ {
		for _, w := range workloads() {
			res, err := runWorkload(e, w, seed, window, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				ok = false
				continue
			}
			res.print(e, os.Stdout)
			ok = ok && res.correct()
			for name, v := range res.metrics {
				k := seriesKey{w.name, name}
				series[k] = append(series[k], v)
			}
			if !trace || set > 0 {
				continue
			}
			// A broken adapter costs the per-layer numbers only.
			tres, err := runWorkload(e, w, seed, window, true)
			if err != nil {
				fmt.Printf("%-14s # %v\n", w.name, err)
				continue
			}
			tres.print(e, os.Stdout)
			ok = ok && tres.correct()
		}
	}
	if repeat > 1 {
		ok = compareSets(e, series) && ok
	}
	if !ok {
		return 1
	}
	return 0
}

// compareSets prints, per workload × end-to-end metric, the sets' median,
// quartiles and spread, and reports whether every pair of sets agrees
// within the metric's bound: the widest pair is (max − min) / min.
func compareSets(e *env, series map[seriesKey][]float64) bool {
	keys := make([]seriesKey, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	order := map[string]int{}
	for i, w := range workloads() {
		order[w.name] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return order[keys[i].workload] < order[keys[j].workload]
		}
		return keys[i].metric < keys[j].metric
	})
	agree := true
	fmt.Printf("\n%-14s %-14s %3s %14s %14s %14s %8s %8s %8s\n",
		"workload", "metric", "n", "median", "q1", "q3", "spread", "widest", "bound")
	for _, k := range keys {
		v := series[k]
		m, known := e.bound(k.metric)
		if !known {
			continue
		}
		q1, q2, q3 := quartiles(v)
		s := sortedCopy(v)
		widest := 0.0
		if lo := math.Abs(s[0]); lo > 0 {
			widest = (s[len(s)-1] - s[0]) / lo
		}
		verdict := ""
		if widest > m.Bound {
			verdict = "  DISAGREE"
			agree = false
		}
		fmt.Printf("%-14s %-14s %3d %14.4f %14.4f %14.4f %7.2f%% %7.2f%% %7.2f%%%s\n",
			k.workload, k.metric, len(v), q2, q1, q3, 100*spread(v), 100*widest, 100*m.Bound, verdict)
	}
	return agree
}
