// Package source provides source positions and diagnostic reporting shared
// by every phase of the Fortran-90-Y compiler.
package source

import (
	"fmt"
	"sort"
	"strings"
)

// Pos is a location in a source file. Line and Col are 1-based; a zero Pos
// means "no position".
type Pos struct {
	File string
	Line int
	Col  int
}

// IsValid reports whether p refers to an actual source location.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		if p.File != "" {
			return p.File // a named origin without lines, e.g. a command-line override
		}
		return "<unknown>"
	}
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Severity classifies a diagnostic.
type Severity int

const (
	// Warn diagnostics do not prevent compilation.
	Warn Severity = iota
	// Err diagnostics abort compilation at the end of the current phase.
	Err
)

func (s Severity) String() string {
	if s == Warn {
		return "warning"
	}
	return "error"
}

// Diagnostic is a single compiler message tied to a source position.
type Diagnostic struct {
	Pos      Pos
	Severity Severity
	Phase    string // "parse", "lower", "shapecheck", ...
	Msg      string
}

func (d Diagnostic) Error() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Severity, d.Msg)
}

// Reporter accumulates diagnostics for a compilation.
type Reporter struct {
	diags []Diagnostic
	errs  int
}

// Errorf records an error diagnostic.
func (r *Reporter) Errorf(phase string, pos Pos, format string, args ...any) {
	r.diags = append(r.diags, Diagnostic{Pos: pos, Severity: Err, Phase: phase, Msg: fmt.Sprintf(format, args...)})
	r.errs++
}

// HasErrors reports whether any error-severity diagnostic was recorded.
func (r *Reporter) HasErrors() bool { return r.errs > 0 }

// Diagnostics returns the recorded diagnostics ordered by position.
func (r *Reporter) Diagnostics() []Diagnostic {
	out := make([]Diagnostic, len(r.diags))
	copy(out, r.diags)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return out
}

// Err returns an error summarising all error diagnostics, or nil.
func (r *Reporter) Err() error {
	if !r.HasErrors() {
		return nil
	}
	var b strings.Builder
	n := 0
	for _, d := range r.Diagnostics() {
		if d.Severity != Err {
			continue
		}
		if n > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(d.Error())
		n++
	}
	return fmt.Errorf("%s", b.String())
}
