package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fakeClock installs a deterministic monotonic clock that advances one
// millisecond per reading.
func fakeClock(c *Collector) {
	var t time.Duration
	c.now = func() time.Duration {
		t += time.Millisecond
		return t
	}
}

func TestSpansRecordMonotonicIntervals(t *testing.T) {
	c := NewCollector()
	fakeClock(c)
	outer := c.StartSpan("outer") // t=1ms
	inner := c.StartSpan("inner") // t=2ms
	inner.End()                   // t=3ms
	outer.End()                   // t=4ms

	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "outer" || spans[1].Name != "inner" {
		t.Fatalf("span order: %v", spans)
	}
	if spans[1].Start <= spans[0].Start {
		t.Errorf("inner must start after outer")
	}
	if spans[0].End <= spans[1].End {
		t.Errorf("outer must end after inner (LIFO nesting)")
	}
	if d := spans[1].Dur(); d != time.Millisecond {
		t.Errorf("inner dur = %v, want 1ms", d)
	}
}

func TestCountersAccumulate(t *testing.T) {
	c := NewCollector()
	c.Add("a", 2)
	c.Add("a", 3)
	c.Add("b", -1)
	if got := c.Counter("a"); got != 5 {
		t.Errorf("a = %v, want 5", got)
	}
	if got := c.Counter("b"); got != -1 {
		t.Errorf("b = %v, want -1", got)
	}
	if got := c.Counter("missing"); got != 0 {
		t.Errorf("missing = %v, want 0", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	c := NewCollector()
	for _, v := range []float64{0.5, 1, 2, 2.5, 1024} {
		c.Observe("h", v)
	}
	h := c.Histograms()["h"]
	if h.Count != 5 {
		t.Fatalf("count = %d, want 5", h.Count)
	}
	if h.Min != 0.5 || h.Max != 1024 {
		t.Errorf("min/max = %v/%v, want 0.5/1024", h.Min, h.Max)
	}
	if h.Sum != 0.5+1+2+2.5+1024 {
		t.Errorf("sum = %v", h.Sum)
	}
	// 0.5 and 1 land in bucket 0; 2 in bucket 1; 2.5 in bucket 2; 1024
	// in bucket 10.
	want := map[int]int64{0: 2, 1: 1, 2: 1, 10: 1}
	for b, n := range want {
		if h.Buckets[b] != n {
			t.Errorf("bucket %d = %d, want %d", b, h.Buckets[b], n)
		}
	}
}

func TestNilAndNopRecordersAreInert(t *testing.T) {
	// The nil-safe helpers must not panic and must return inert spans.
	s := Start(nil, "x")
	s.End()
	Add(nil, "c", 1)
	Observe(nil, "h", 1)

	var n Nop
	sp := n.StartSpan("x")
	sp.End()
	n.Add("c", 1)
	n.Observe("h", 1)
	Start(n, "y").End()
}

func TestReportGolden(t *testing.T) {
	c := NewCollector()
	fakeClock(c)
	compile := c.StartSpan("compile")
	lex := c.StartSpan("lex")
	lex.End()
	part := c.StartSpan("partition")
	pe := c.StartSpan("pe-codegen")
	pe.End()
	part.End()
	compile.End()
	open := c.StartSpan("exec")
	_ = open // deliberately left open

	c.Add("opt/fused-moves", 12)
	c.Add("exec/pe-cycles", 40320)
	c.Add("exec/gflops", 2.987)
	c.Observe("cm2/dispatch-cycles", 96)
	c.Observe("cm2/dispatch-cycles", 4032)

	got := c.Report()
	golden := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("report mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestReportFoldsSiblingRuns: past foldPast same-named siblings print as
// one line with count, total, min and max; a shorter run and the spans
// the collector hands out are untouched.
func TestReportFoldsSiblingRuns(t *testing.T) {
	c := NewCollector()
	fakeClock(c)
	part := c.StartSpan("partition")
	for i := 0; i < foldPast+1; i++ {
		c.StartSpan("pe-codegen").End()
	}
	part.End()
	for i := 0; i < foldPast; i++ {
		c.StartSpan("exec").End()
	}
	got := c.Report()
	if want := fmt.Sprintf("    pe-codegen ×%d", foldPast+1); strings.Count(got, "pe-codegen") != 1 || !strings.Contains(got, want) {
		t.Errorf("run of %d siblings not folded into one %q line:\n%s", foldPast+1, want, got)
	}
	if !strings.Contains(got, "total, min 1000µs max 1000µs") {
		t.Errorf("folded line lacks total/min/max:\n%s", got)
	}
	if n := strings.Count(got, "  exec "); n != foldPast {
		t.Errorf("run of %d siblings printed %d lines, want one each:\n%s", foldPast, n, got)
	}
	if n := len(c.Spans()); n != 1+foldPast+1+foldPast {
		t.Errorf("collector holds %d spans, folding must not drop any", n)
	}
}

func TestWriteTraceIsChromeLoadable(t *testing.T) {
	c := NewCollector()
	fakeClock(c)
	s1 := c.StartSpan("compile")
	s2 := c.StartSpan("lex")
	s2.End()
	s1.End()
	c.Add("exec/flops", 123)

	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var xs, cs, ms int
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "X":
			xs++
			if e.Dur <= 0 {
				t.Errorf("span %q has non-positive dur %v", e.Name, e.Dur)
			}
		case "C":
			cs++
			if e.Args["value"] != 123.0 {
				t.Errorf("counter args = %v", e.Args)
			}
		case "M":
			ms++
		}
	}
	// Metadata: process_name plus a thread_name for the default track.
	if xs != 2 || cs != 1 || ms != 2 {
		t.Errorf("event counts X/C/M = %d/%d/%d, want 2/1/2", xs, cs, ms)
	}
}
