package main

// In-memory span tracer for the traced run. A span is recorded around
// each call into a layer's public functions, from this package; nothing
// inside the program under test is instrumented. Spans are kept in
// memory and written out once, after the last round.

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

type span struct {
	name       string
	start, end time.Duration // offsets from the tracer's epoch
	parent     int           // index of the enclosing span, -1 at top level
	op         int           // round the span belongs to
}

type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) top() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: t.top(), op: t.op})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
	return s.end - s.start
}

// add records an already-finished child span (the program's own
// pe-codegen spans, re-based onto this tracer's epoch).
func (t *tracer) add(name string, start, end time.Time, parent int) {
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch), parent: parent, op: t.op})
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// selfRow is one line of the self-time table: a layer's total span time
// and that time minus what its child spans cover.
type selfRow struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name over every round, largest self
// time first.
func (t *tracer) selfTimes() []selfRow {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*selfRow{}
	for i, s := range t.spans {
		r := byName[s.name]
		if r == nil {
			r = &selfRow{Name: s.name}
			byName[s.name] = r
		}
		r.Calls++
		r.TotalMS += ms(s.end - s.start)
		r.SelfMS += ms(s.end - s.start - child[i])
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMS != rows[j].SelfMS {
			return rows[i].SelfMS > rows[j].SelfMS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// chromeRounds bounds the rounds written to the Chrome trace so the file
// stays small enough to open; the self-time table covers every round.
const chromeRounds = 2

// writeChrome writes the first rounds' spans as Chrome trace_event JSON
// (complete "X" events; args carry the span id, parent id and op id).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := []event{}
	for i, s := range t.spans {
		if s.op >= chromeRounds {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]int{"id": i, "parent": s.parent, "op": s.op},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
