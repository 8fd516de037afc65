package rt

// Runtime guardrails: the cycle-budget watchdog and the numeric-
// exception plane. Both are opt-in through the execution control plane
// (cm2.Control / hostvm.Ctl); a run without them pays one nil check per
// instrumented site.

import (
	"errors"
	"fmt"
)

// Guardrail sentinels, matched by callers with errors.Is.
var (
	// ErrBudget reports a run killed by the watchdog: the modeled cycle
	// total exceeded the configured budget (or the host step backstop).
	// The kill is deterministic — the same program and budget die at the
	// same host step with the same message on every run.
	ErrBudget = errors.New("cycle budget exhausted")
	// ErrNumeric reports a NaN or infinity produced by a PE float
	// operation while the numeric plane runs in trap mode. The wrapping
	// error attributes the exception to a routine, instruction, element
	// offset, and processing element.
	ErrNumeric = errors.New("numeric exception")
)

// NumericMode selects what the numeric-exception plane does when a PE
// float operation produces a NaN or infinity.
type NumericMode int

const (
	// NumericOff disables the plane (no scan, no counts).
	NumericOff NumericMode = iota
	// NumericRecord counts exceptional lanes per PEAC cycle class and
	// lets the run continue.
	NumericRecord
	// NumericTrap halts the run at the first exceptional lane with an
	// error wrapping ErrNumeric.
	NumericTrap
)

func (m NumericMode) String() string {
	switch m {
	case NumericRecord:
		return "record"
	case NumericTrap:
		return "trap"
	}
	return "off"
}

// ParseNumericMode parses the CLI form of a mode: "" and "off" disable
// the plane, "trap" and "record" select the active modes.
func ParseNumericMode(s string) (NumericMode, error) {
	switch s {
	case "", "off":
		return NumericOff, nil
	case "trap":
		return NumericTrap, nil
	case "record":
		return NumericRecord, nil
	}
	return NumericOff, fmt.Errorf("rt: bad numeric mode %q (want off, trap, or record)", s)
}

// Numeric is the numeric-exception plane for one run: the executor
// scans the destination lanes of every can-trap PEAC float op (see
// peac.OpInfo.Trap) and either traps or tallies per cycle class. Counts are
// keyed by the peac.CycleClass names so rt stays independent of the
// instruction set.
type Numeric struct {
	Mode NumericMode
	// NaN and Inf count exceptional lanes produced, per cycle class
	// ("vector-arith", "divide", "sqrt", "transcend", ...).
	NaN map[string]int64
	Inf map[string]int64
}

// NewNumeric builds a plane for the mode; NumericOff yields nil (the
// plane disabled), so callers can pass the result straight to a
// control structure.
func NewNumeric(mode NumericMode) *Numeric {
	if mode == NumericOff {
		return nil
	}
	return &Numeric{Mode: mode}
}

// Note tallies one exceptional lane under class.
func (n *Numeric) Note(class string, nan bool) {
	if nan {
		if n.NaN == nil {
			n.NaN = map[string]int64{}
		}
		n.NaN[class]++
		return
	}
	if n.Inf == nil {
		n.Inf = map[string]int64{}
	}
	n.Inf[class]++
}

// Merge folds another plane's tallies into n (both sides nil-safe).
// Per-class counts add, so merging workers' private planes in any order
// yields totals identical to a serial scan — the parallel executor's
// deterministic record-mode merge.
func (n *Numeric) Merge(m *Numeric) {
	if n == nil || m == nil {
		return
	}
	for cl, c := range m.NaN {
		if n.NaN == nil {
			n.NaN = map[string]int64{}
		}
		n.NaN[cl] += c
	}
	for cl, c := range m.Inf {
		if n.Inf == nil {
			n.Inf = map[string]int64{}
		}
		n.Inf[cl] += c
	}
}

// Total is the number of exceptional lanes recorded (nil-safe).
func (n *Numeric) Total() int64 {
	if n == nil {
		return 0
	}
	var t int64
	for _, v := range n.NaN {
		t += v
	}
	for _, v := range n.Inf {
		t += v
	}
	return t
}
