package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// foldPast is the longest run of same-named sibling spans Report prints
// one line each.
const foldPast = 8

// Report renders the collector as a fixed-width text table: phases
// (spans) in start order with nesting shown by indentation, counters in
// sorted order, then histograms. It is the one formatting path shared by
// f90yc -v, f90yc -dump stats, and f90yrun -metrics.
func (c *Collector) Report() string {
	spans := c.Spans()
	counters := c.Counters()
	hists := c.Histograms()
	events := c.Events()

	var b strings.Builder
	if len(spans) > 0 {
		b.WriteString("phases:\n")
		// Nesting depth: a span is a child of every earlier span whose
		// interval contains it (spans are opened and closed in LIFO
		// order within the single-threaded pipeline). An open span's
		// end is treated as infinity.
		end := func(r SpanRec) time.Duration {
			if r.End == 0 {
				return 1 << 62
			}
			return r.End
		}
		depth := make([]int, len(spans))
		for i, s := range spans {
			for j := 0; j < i; j++ {
				p := spans[j]
				if p.Start <= s.Start && end(p) > s.Start && end(p) >= end(s) {
					depth[i]++
				}
			}
		}
		for i := 0; i < len(spans); {
			s := spans[i]
			name := strings.Repeat("  ", depth[i]) + s.Name
			if s.End == 0 {
				fmt.Fprintf(&b, "  %-32s (open)\n", name)
				i++
				continue
			}
			// A run of closed siblings of one name (one span a routine, a
			// chunk, ...) past foldPast folds into a single line; the
			// spans themselves stay in Spans and the trace.
			total, lo, hi := time.Duration(0), s.Dur(), s.Dur()
			j := i
			for ; j < len(spans) && spans[j].Name == s.Name && depth[j] == depth[i] && spans[j].End != 0; j++ {
				d := spans[j].Dur()
				total, lo, hi = total+d, min(lo, d), max(hi, d)
			}
			if j-i <= foldPast {
				fmt.Fprintf(&b, "  %-32s %12.0fµs\n", name, float64(s.Dur().Microseconds()))
				i++
				continue
			}
			fmt.Fprintf(&b, "  %-32s %12.0fµs  total, min %.0fµs max %.0fµs\n", fmt.Sprintf("%s ×%d", name, j-i),
				float64(total.Microseconds()), float64(lo.Microseconds()), float64(hi.Microseconds()))
			i = j
		}
	}
	if len(counters) > 0 {
		b.WriteString("counters:\n")
		keys := make([]string, 0, len(counters))
		for k := range counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-40s %s\n", k, formatCount(counters[k]))
		}
	}
	if len(events) > 0 {
		// Events are summarized per name (first/last occurrence time);
		// the full stream is in the trace export.
		b.WriteString("events:\n")
		type agg struct {
			n           int
			first, last time.Duration
		}
		byName := map[string]*agg{}
		var names []string
		for _, e := range events {
			a := byName[e.Name]
			if a == nil {
				a = &agg{first: e.At}
				byName[e.Name] = a
				names = append(names, e.Name)
			}
			a.n++
			a.last = e.At
		}
		sort.Strings(names)
		for _, name := range names {
			a := byName[name]
			fmt.Fprintf(&b, "  %-40s n=%d first=%.0fµs last=%.0fµs\n",
				name, a.n, float64(a.first.Microseconds()), float64(a.last.Microseconds()))
		}
		if d := c.EventsDropped(); d > 0 {
			fmt.Fprintf(&b, "  (%d events dropped past the log bound)\n", d)
		}
	}
	if len(hists) > 0 {
		b.WriteString("histograms:\n")
		keys := make([]string, 0, len(hists))
		for k := range hists {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h := hists[k]
			fmt.Fprintf(&b, "  %-40s n=%d min=%s max=%s mean=%s\n",
				k, h.Count, formatCount(h.Min), formatCount(h.Max), formatCount(h.Mean()))
		}
	}
	return b.String()
}

// formatCount prints integers without a fraction and everything else
// with a short fixed precision.
func formatCount(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}
