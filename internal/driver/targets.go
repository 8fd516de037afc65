package driver

import (
	"fmt"
	"strings"

	"f90y/internal/cm2"
	"f90y/internal/cm5"
)

// Targets is THE machine table: every machine a flag, a request or the
// oracle can name, the default first. It is the only place outside the
// machine packages that knows which machines exist, so a new machine is
// one file that builds a cm2.Target and one row here (DESIGN.md "Machine
// core and targets"). A Target is never mutated by a run; treat the
// table as read-only.
var Targets = []*cm2.Target{
	cm2.Default().Target(),
	cm5.Default().Target(),
}

// TargetNames renders the table's names for help and error text:
// "cm2 or cm5".
func TargetNames() string {
	names := make([]string, len(Targets))
	for i, t := range Targets {
		names[i] = t.Name
	}
	return strings.Join(names, " or ")
}

// Target resolves a -target flag or a request's "target" field; the
// empty name is the default machine. units > 0 resizes the machine (the
// -pes flag): a copy of the table's entry with that many processing
// units — PEs on the CM/2, nodes on the CM-5.
func Target(name string, units int) (*cm2.Target, error) {
	if units < 0 {
		return nil, fmt.Errorf("%d processing units (want > 0, or 0 for the machine's full size)", units)
	}
	if name == "" {
		name = Targets[0].Name
	}
	for _, t := range Targets {
		if t.Name != name {
			continue
		}
		if units > 0 {
			sized := *t
			sized.Units = units
			return &sized, nil
		}
		return t, nil
	}
	return nil, fmt.Errorf("unknown target %q (want %s)", name, TargetNames())
}

// TargetsWith is the table with m standing in for its namesake: the set
// the oracle checks when the run it verifies was resized.
func TargetsWith(m *cm2.Target) []*cm2.Target {
	out := make([]*cm2.Target, len(Targets))
	for i, t := range Targets {
		if out[i] = t; t.Name == m.Name {
			out[i] = m
		}
	}
	return out
}
