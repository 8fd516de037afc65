package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec parses the fault-plan syntax shared by f90yrun, swebench
// and a served request's "faults" field:
//
//	-faults seed=S,pe=P,drop=D,corrupt=C,delay=L,stall=T,...
//
// Items are comma-separated key=value pairs:
//
//	seed=N          RNG seed (default 1)
//	pe=P            per-dispatch PE-death probability
//	drop=P          per-transfer drop probability
//	corrupt=P       per-transfer corruption probability
//	delay=P         per-transfer delay probability
//	stall=P         per-host-op stall probability
//	retries=N       retransmission budget per transfer
//	backoff=C       initial backoff wait, cycles
//	backoff-cap=C   backoff wait ceiling, cycles
//	stall-cycles=C  cost of one host stall
//	delay-cycles=C  cost of one transfer delay
//	degrade=on|off  graceful degradation on PE death (default on)
//	kill=P@T        schedule PE P to die at host op T
//	fatal=T         schedule a fatal machine fault at host op T
//
// An empty spec returns a nil plan (injection disabled). Every parse
// error names the offending item and field — which key, which half of a
// kill=PE@TICK pair, what value kind was expected — so a long spec
// fails with an actionable message instead of a bare strconv error.
func ParseSpec(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1, Spec: spec}
	for i, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("faults: item %d %q: missing '=' (items are key=value pairs)", i+1, item)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = parseIntField(key, val)
		case "pe":
			p.PEKill, err = parseProb(key, val)
		case "drop":
			p.Drop, err = parseProb(key, val)
		case "corrupt":
			p.Corrupt, err = parseProb(key, val)
		case "delay":
			p.Delay, err = parseProb(key, val)
		case "stall":
			p.Stall, err = parseProb(key, val)
		case "retries":
			var n int64
			n, err = parseIntField(key, val)
			p.MaxRetries = int(n)
		case "backoff":
			p.RetryBackoff, err = parseCycles(key, val)
		case "backoff-cap":
			p.RetryBackoffCap, err = parseCycles(key, val)
		case "stall-cycles":
			p.StallCycles, err = parseCycles(key, val)
		case "delay-cycles":
			p.DelayCycles, err = parseCycles(key, val)
		case "degrade":
			switch val {
			case "on":
				p.NoDegrade = false
			case "off":
				p.NoDegrade = true
			default:
				err = fmt.Errorf("faults: degrade: want on or off, got %q", val)
			}
		case "kill":
			peStr, atStr, ok := strings.Cut(val, "@")
			if !ok {
				err = fmt.Errorf("faults: kill: %q is missing '@' (want kill=PE@TICK)", val)
				break
			}
			var pe, at int64
			if pe, err = parseIntField("kill: PE (before '@')", peStr); err != nil {
				break
			}
			if at, err = parseIntField("kill: tick (after '@')", atStr); err != nil {
				break
			}
			p.Events = append(p.Events, Event{At: at, Kind: KillPE, PE: int(pe)})
		case "fatal":
			var at int64
			if at, err = parseIntField("fatal: tick", val); err != nil {
				break
			}
			p.Events = append(p.Events, Event{At: at, Kind: FatalStop})
		default:
			return nil, fmt.Errorf("faults: item %d: unknown key %q (want seed, pe, drop, corrupt, delay, stall, retries, backoff, backoff-cap, stall-cycles, delay-cycles, degrade, kill, fatal)", i+1, key)
		}
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// SpecString renders the plan in the CLI spec syntax ParseSpec accepts,
// omitting zero-valued fields, so a plan extracted from a report or a
// soak reproducer can be replayed directly via -faults.
func (p Plan) SpecString() string {
	spec := fmt.Sprintf("seed=%d", p.Seed)
	add := func(key string, v float64) {
		if v != 0 {
			spec += fmt.Sprintf(",%s=%g", key, v)
		}
	}
	add("pe", p.PEKill)
	add("drop", p.Drop)
	add("corrupt", p.Corrupt)
	add("delay", p.Delay)
	add("stall", p.Stall)
	if p.MaxRetries != 0 {
		spec += fmt.Sprintf(",retries=%d", p.MaxRetries)
	}
	add("backoff", p.RetryBackoff)
	add("backoff-cap", p.RetryBackoffCap)
	add("stall-cycles", p.StallCycles)
	add("delay-cycles", p.DelayCycles)
	if p.NoDegrade {
		spec += ",degrade=off"
	}
	for _, e := range p.Events {
		if e.Kind == KillPE {
			spec += fmt.Sprintf(",kill=%d@%d", e.PE, e.At)
		} else {
			spec += fmt.Sprintf(",fatal=%d", e.At)
		}
	}
	return spec
}

// parseIntField parses one integer-valued field, naming the field in
// the error.
func parseIntField(field, s string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("faults: %s: want an integer, got %q", field, s)
	}
	return v, nil
}

// parseProb parses one probability-valued field, naming the field in
// the error.
func parseProb(field, s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("faults: %s: want a probability in [0,1], got %q", field, s)
	}
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("faults: %s: probability %v outside [0,1]", field, v)
	}
	return v, nil
}

// parseCycles parses one cycle-count field, naming the field in the
// error.
func parseCycles(field, s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("faults: %s: want a cycle count, got %q", field, s)
	}
	if v < 0 {
		return 0, fmt.Errorf("faults: %s: cycle count %v is negative", field, v)
	}
	return v, nil
}
