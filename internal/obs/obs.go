// Package obs is the compiler/machine observability layer: spans with
// monotonic timestamps for every pipeline phase, named counters for the
// stats each phase already computes, and histograms for per-dispatch
// cycle distributions. It is dependency-free (stdlib only) and designed
// so that an instrumented call site costs one nil check when no recorder
// is attached — the hot paths of the CM/2 simulator run unchanged.
//
// The package follows the paper's own methodology (§6): performance
// claims rest on *attribution* — instruction counts, call-overhead
// amortisation, compute-versus-communication balance — so every layer of
// the pipeline reports what it did through the same Recorder, and every
// perf experiment can prove its win from emitted telemetry rather than
// ad-hoc prints.
//
// Three consumers are provided:
//
//   - Collector: the recording implementation, safe for concurrent use;
//   - (*Collector).Report: a text rendering of phases, counters, and
//     histograms (the single formatting path for the CLIs' -v/-metrics);
//   - (*Collector).WriteTrace: a Chrome trace_event JSON exporter
//     (load the file at chrome://tracing or https://ui.perfetto.dev).
package obs

import (
	"sync"
	"time"
)

// Recorder receives telemetry from instrumented code. Implementations
// must be safe for concurrent use. Instrumented code should not call a
// possibly-nil Recorder directly; it uses the nil-safe package helpers
// Start, Add, and Observe instead.
type Recorder interface {
	// StartSpan opens a named span at the current monotonic time. The
	// returned Span is closed with End.
	StartSpan(name string) Span
	// Add increments the named counter by delta.
	Add(name string, delta float64)
	// Observe records one sample into the named histogram.
	Observe(name string, value float64)
}

// Start opens a span on r; a nil r yields a no-op Span. This is the form
// instrumented code uses:
//
//	defer obs.Start(rec, "partition").End()
func Start(r Recorder, name string) Span {
	if r == nil {
		return Span{}
	}
	return r.StartSpan(name)
}

// Add increments a counter on r; nil r is a no-op.
func Add(r Recorder, name string, delta float64) {
	if r != nil {
		r.Add(name, delta)
	}
}

// Observe records a histogram sample on r; nil r is a no-op.
func Observe(r Recorder, name string, value float64) {
	if r != nil {
		r.Observe(name, value)
	}
}

// EventRecorder is an optional Recorder extension for discrete
// occurrences that are neither durations (spans) nor monotone totals
// (counters) — e.g. one injected machine fault. Recorders that do not
// implement it silently drop events.
type EventRecorder interface {
	// Event records one named occurrence with numeric attributes.
	Event(name string, attrs map[string]float64)
}

// Event records a discrete occurrence on r; recorders without event
// support (and nil r) drop it.
func Event(r Recorder, name string, attrs map[string]float64) {
	if er, ok := r.(EventRecorder); ok {
		er.Event(name, attrs)
	}
}

// TrackSpanRecorder is an optional Recorder extension for spans that
// belong to a specific track — a logical thread lane in the exported
// Chrome trace. The sharded executor assigns one track per pool worker
// so the trace shows the pool's shape. Recorders that do not implement
// it record the span on the default track.
type TrackSpanRecorder interface {
	// StartSpanTrack opens a named span on the given track (0 is the
	// default track; workers use 1..N).
	StartSpanTrack(name string, track int) Span
}

// StartTrack opens a span on a specific track; recorders without track
// support fall back to StartSpan, and a nil r yields a no-op Span.
func StartTrack(r Recorder, name string, track int) Span {
	if tr, ok := r.(TrackSpanRecorder); ok {
		return tr.StartSpanTrack(name, track)
	}
	if r == nil {
		return Span{}
	}
	return r.StartSpan(name)
}

// Span is one open interval of work. The zero Span (and any Span from a
// Nop recorder or nil Recorder) is inert: End does nothing.
type Span struct {
	c   *Collector
	idx int
}

// End closes the span at the current monotonic time.
func (s Span) End() {
	if s.c == nil {
		return
	}
	s.c.endSpan(s.idx)
}

// Nop is a Recorder that records nothing. It exists for callers that
// want an always-non-nil Recorder; instrumented code reached through the
// package helpers accepts nil just as well.
type Nop struct{}

// StartSpan returns an inert Span.
func (Nop) StartSpan(string) Span { return Span{} }

// Add does nothing.
func (Nop) Add(string, float64) {}

// Observe does nothing.
func (Nop) Observe(string, float64) {}

// EventRec is one recorded occurrence: a name, a monotonic offset from
// the collector's epoch, and numeric attributes.
type EventRec struct {
	Name  string
	At    time.Duration
	Attrs map[string]float64
}

// SpanRec is one completed (or still-open) span: times are monotonic
// offsets from the collector's epoch. End is zero while the span is
// open. Track is the logical thread lane (0 = default; executor pool
// workers record on 1..N).
type SpanRec struct {
	Name  string
	Start time.Duration
	End   time.Duration
	Track int
}

// Dur is the span length (zero while open).
func (s SpanRec) Dur() time.Duration {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// HistBuckets is the number of power-of-two histogram buckets.
const HistBuckets = 64

// Hist is a power-of-two-bucketed histogram: bucket 0 counts samples
// <= 1, bucket i counts samples in (2^(i-1), 2^i].
type Hist struct {
	Count   int64
	Sum     float64
	Min     float64
	Max     float64
	Buckets [HistBuckets]int64
}

// Mean is the sample mean (zero with no samples).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

func bucketOf(v float64) int {
	b := 0
	for x := 1.0; x < v && b < HistBuckets-1; x *= 2 {
		b++
	}
	return b
}

// Collector is the recording Recorder. The zero value is not usable;
// construct with NewCollector.
type Collector struct {
	mu            sync.Mutex
	epoch         time.Time
	now           func() time.Duration // monotonic offset from epoch
	spans         []SpanRec
	counters      map[string]float64
	hists         map[string]*Hist
	events        []EventRec
	eventsDropped int64
}

// maxEvents bounds the collector's event log; past it, Event only
// counts the overflow.
const maxEvents = 65536

// maxSpans bounds the collector's span log: per-chunk executor spans on
// a long run could otherwise grow without limit. Past the bound,
// StartSpan returns an inert Span.
const maxSpans = 1 << 18

// NewCollector returns an empty collector whose epoch is now.
func NewCollector() *Collector {
	c := &Collector{
		epoch:    time.Now(),
		counters: map[string]float64{},
		hists:    map[string]*Hist{},
	}
	c.now = func() time.Duration { return time.Since(c.epoch) }
	return c
}

// StartSpan implements Recorder.
func (c *Collector) StartSpan(name string) Span {
	return c.StartSpanTrack(name, 0)
}

// StartSpanTrack implements TrackSpanRecorder.
func (c *Collector) StartSpanTrack(name string, track int) Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.spans) >= maxSpans {
		return Span{}
	}
	c.spans = append(c.spans, SpanRec{Name: name, Start: c.now(), Track: track})
	return Span{c: c, idx: len(c.spans) - 1}
}

func (c *Collector) endSpan(idx int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx >= 0 && idx < len(c.spans) && c.spans[idx].End == 0 {
		c.spans[idx].End = c.now()
	}
}

// Add implements Recorder.
func (c *Collector) Add(name string, delta float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters[name] += delta
}

// Observe implements Recorder.
func (c *Collector) Observe(name string, value float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.hists[name]
	if h == nil {
		h = &Hist{Min: value, Max: value}
		c.hists[name] = h
	}
	if value < h.Min || h.Count == 0 {
		h.Min = value
	}
	if value > h.Max || h.Count == 0 {
		h.Max = value
	}
	h.Count++
	h.Sum += value
	h.Buckets[bucketOf(value)]++
}

// Event implements EventRecorder: it timestamps and records one
// occurrence, bounded at maxEvents entries.
func (c *Collector) Event(name string, attrs map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) >= maxEvents {
		c.eventsDropped++
		return
	}
	var cp map[string]float64
	if len(attrs) > 0 {
		cp = make(map[string]float64, len(attrs))
		for k, v := range attrs {
			cp[k] = v
		}
	}
	c.events = append(c.events, EventRec{Name: name, At: c.now(), Attrs: cp})
}

// Events returns the recorded events in record order.
func (c *Collector) Events() []EventRec {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EventRec, len(c.events))
	copy(out, c.events)
	return out
}

// EventsDropped is the number of events past the maxEvents bound.
func (c *Collector) EventsDropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eventsDropped
}

// Spans returns the recorded spans in start order.
func (c *Collector) Spans() []SpanRec {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SpanRec, len(c.spans))
	copy(out, c.spans)
	return out
}

// Counters returns a copy of the counter map.
func (c *Collector) Counters() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.counters))
	for k, v := range c.counters {
		out[k] = v
	}
	return out
}

// Histograms returns a copy of the histogram map.
func (c *Collector) Histograms() map[string]*Hist {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*Hist, len(c.hists))
	for k, v := range c.hists {
		h := *v
		out[k] = &h
	}
	return out
}
