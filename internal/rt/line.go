package rt

import (
	"fmt"
	"strconv"
	"strings"
)

// LineRef is one source-line cycle-attribution cell: the PEAC routine the
// cycles were modeled in, the Fortran file and line the work descends
// from, and the cycle class ("vector-arith", "load-store", ..., plus the
// machine-specific "degrade" and "sparc-issue" buckets). It is the key of
// the PELineCycles maps carried by results and checkpoints.
//
// LineRef implements encoding.TextMarshaler/TextUnmarshaler so the maps
// serialize as ordinary JSON objects; the text form is
// "routine|file:line|class" and round-trips exactly (routine names,
// file names, and class names never contain '|').
type LineRef struct {
	Routine string
	File    string
	Line    int
	Class   string
}

func (l LineRef) String() string {
	return fmt.Sprintf("%s|%s:%d|%s", l.Routine, l.File, l.Line, l.Class)
}

// MarshalText renders the "routine|file:line|class" key form.
func (l LineRef) MarshalText() ([]byte, error) {
	return []byte(l.String()), nil
}

// UnmarshalText parses the form written by MarshalText. The file:line
// field splits at the last ':' so file names containing colons survive.
func (l *LineRef) UnmarshalText(text []byte) error {
	parts := strings.Split(string(text), "|")
	if len(parts) != 3 {
		return fmt.Errorf("rt: malformed line ref %q", text)
	}
	loc := parts[1]
	i := strings.LastIndexByte(loc, ':')
	if i < 0 {
		return fmt.Errorf("rt: malformed line ref location %q", loc)
	}
	line, err := strconv.Atoi(loc[i+1:])
	if err != nil {
		return fmt.Errorf("rt: malformed line ref line number %q: %w", loc[i+1:], err)
	}
	l.Routine, l.File, l.Line, l.Class = parts[0], loc[:i], line, parts[2]
	return nil
}

// CopyMap returns an independent copy of a cycle-bucket map. A nil map
// copies to an empty (non-nil) map.
func CopyMap(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// CopyLineMap returns an independent copy of a per-line cycle map. A nil
// map copies to an empty (non-nil) map, matching CopyMap.
func CopyLineMap(m map[LineRef]float64) map[LineRef]float64 {
	out := make(map[LineRef]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// MergeLineMaps sums any number of per-line cycle maps into a fresh map
// (nil inputs are skipped); the profiler uses it to overlay the comm
// network attribution onto the PE attribution.
func MergeLineMaps(maps ...map[LineRef]float64) map[LineRef]float64 {
	out := map[LineRef]float64{}
	for _, m := range maps {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

// CommRoutine is the pseudo-routine name under which communication
// cycles are attributed to source lines (there is no PEAC routine for a
// router or NEWS transfer; the network itself is the "routine").
const CommRoutine = "(comm)"
