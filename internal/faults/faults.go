// Package faults is the deterministic fault-injection plane for the
// simulated CM machines. The paper's CM/2 and CM-5 were real hardware:
// PEs died, router messages were dropped or corrupted in flight, and
// long SWE runs were restarted from saved state. The reproduction
// models that machine, not a perfect one: a Plan (seed + rates +
// scheduled events) drives an Injector threaded through the runtime
// communication layer (internal/rt), the node dispatch path
// (internal/cm2, internal/cm5), and the host VM (internal/hostvm).
//
// Everything is deterministic: the same Plan produces the same fault
// sequence, event log, retry counts, and cycle totals on every run,
// because every probabilistic draw comes from one seeded generator and
// the simulators are single-threaded. A nil *Injector disables the
// plane entirely; the instrumented call sites cost one nil check, so a
// run without a fault plan is bit-identical to a build without this
// package.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"f90y/internal/obs"
)

// Sentinel errors, matched by callers with errors.Is.
var (
	// ErrPEDead reports a processing element killed by injection while
	// graceful degradation is disabled.
	ErrPEDead = errors.New("processing element dead")
	// ErrFatal reports a scheduled fatal fault: the machine halts and
	// the run can only continue from a checkpoint.
	ErrFatal = errors.New("fatal machine fault")
	// ErrTransfer reports a network transfer that still failed after
	// the retry budget was exhausted.
	ErrTransfer = errors.New("network transfer failed")
)

// Outcome is the fate of one network transfer.
type Outcome int

const (
	// OK delivers the transfer untouched.
	OK Outcome = iota
	// Drop loses the message; the receiver times out and the sender
	// retransmits.
	Drop
	// Corrupt flips one bit of the payload in flight; the per-transfer
	// checksum detects it and the sender retransmits.
	Corrupt
	// Delay delivers the transfer intact after a stall.
	Delay
)

func (o Outcome) String() string {
	switch o {
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Delay:
		return "delay"
	}
	return "ok"
}

// EventKind labels a scheduled fault event.
type EventKind int

const (
	// KillPE kills one named processing element at the scheduled tick.
	KillPE EventKind = iota
	// FatalStop halts the whole machine at the scheduled tick.
	FatalStop
)

// Event is one scheduled fault: it fires when the host operation
// counter reaches At.
type Event struct {
	At   int64
	Kind EventKind
	PE   int // KillPE only
}

// Plan is a complete, serializable fault schedule: a seed, per-site
// probabilities, retry policy, and scheduled events. The zero Plan
// injects nothing (but still pays the injection branches; use a nil
// *Injector for true zero overhead).
type Plan struct {
	// Seed drives every probabilistic draw.
	Seed int64
	// PEKill is the per-dispatch probability that one PE dies.
	PEKill float64
	// Drop, Corrupt, and Delay are per-transfer probabilities on the
	// NEWS/router/reduce networks.
	Drop    float64
	Corrupt float64
	Delay   float64
	// Stall is the per-host-op probability of a front-end stall.
	Stall float64

	// StallCycles is the cost of one injected host stall.
	StallCycles float64
	// DelayCycles is the cost of one injected transfer delay.
	DelayCycles float64
	// MaxRetries caps retransmissions per transfer before the runtime
	// gives up with ErrTransfer.
	MaxRetries int
	// RetryBackoff and RetryBackoffCap shape the exponential backoff
	// wait charged per retry: min(RetryBackoff<<attempt, cap) cycles.
	RetryBackoff    float64
	RetryBackoffCap float64
	// NoDegrade turns PE death into a structured error (ErrPEDead)
	// instead of graceful degradation onto a buddy PE.
	NoDegrade bool
	// Events are scheduled faults, fired in At order.
	Events []Event
	// Spec preserves the CLI spec string the plan was parsed from, for
	// reports; it has no effect on injection.
	Spec string
}

// Default retry/cost parameters, applied by New when the plan leaves
// them zero.
const (
	DefaultStallCycles     = 1000
	DefaultDelayCycles     = 500
	DefaultMaxRetries      = 8
	DefaultRetryBackoff    = 100
	DefaultRetryBackoffCap = 3200
)

// Stats accumulates what the injector did to one run.
type Stats struct {
	// Injected counts injected faults per kind: "drop", "corrupt",
	// "delay", "pe-kill", "host-stall", "fatal".
	Injected map[string]int64 `json:"injected"`
	// Retries is the number of retransmissions the runtime performed.
	Retries int64 `json:"retries"`
	// RetryCycles is the total extra cycles charged for
	// retransmissions and backoff waits.
	RetryCycles float64 `json:"retry_cycles"`
	// Degraded counts dead PEs remapped onto a buddy.
	Degraded int64 `json:"degraded"`
	// DeadPEs lists dead processing elements in death order.
	DeadPEs []int `json:"dead_pes,omitempty"`
}

// LogEntry is one recorded fault event.
type LogEntry struct {
	Tick int64  // host-op tick at injection time
	Kind string // drop, corrupt, delay, pe-kill, host-stall, fatal, degrade, retry
	Site string // network class or "pe"/"host"
	PE   int    // -1 unless a PE is involved
}

// maxLog bounds the event log; past it only counters grow.
const maxLog = 16384

// Injector draws fault outcomes for one run. All methods are nil-safe
// where noted; construction is via New. Not safe for concurrent use —
// the simulators are single-threaded.
type Injector struct {
	plan Plan
	rng  *rand.Rand
	rec  obs.Recorder

	hostTick    int64
	eventCursor int
	pending     []int // scheduled kills awaiting the next dispatch
	dead        map[int]bool

	stats Stats
	log   []LogEntry
}

// New builds an injector from a plan, filling in default retry/cost
// parameters. A nil plan yields a nil injector (injection disabled).
// Telemetry (fault counters and events) goes to rec, which may be nil.
func New(plan *Plan, rec obs.Recorder) *Injector {
	if plan == nil {
		return nil
	}
	p := *plan
	if p.StallCycles == 0 {
		p.StallCycles = DefaultStallCycles
	}
	if p.DelayCycles == 0 {
		p.DelayCycles = DefaultDelayCycles
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = DefaultMaxRetries
	}
	if p.RetryBackoff == 0 {
		p.RetryBackoff = DefaultRetryBackoff
	}
	if p.RetryBackoffCap == 0 {
		p.RetryBackoffCap = DefaultRetryBackoffCap
	}
	p.Events = append([]Event(nil), p.Events...)
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return &Injector{
		plan: p,
		rng:  rand.New(rand.NewSource(p.Seed)),
		rec:  rec,
		dead: map[int]bool{},
	}
}

// Plan returns the effective plan (defaults applied).
func (in *Injector) Plan() Plan { return in.plan }

// note records one injected fault in the log, the stats, and the
// telemetry stream.
func (in *Injector) note(kind, site string, pe int) {
	if in.stats.Injected == nil {
		in.stats.Injected = map[string]int64{}
	}
	in.stats.Injected[kind]++
	if len(in.log) < maxLog {
		in.log = append(in.log, LogEntry{Tick: in.hostTick, Kind: kind, Site: site, PE: pe})
	}
	obs.Add(in.rec, "faults/injected/"+kind, 1)
	obs.Event(in.rec, "fault/"+kind, map[string]float64{"tick": float64(in.hostTick), "pe": float64(pe)})
}

// HostTick advances the host operation counter, firing scheduled
// events and drawing front-end stalls. It returns stall cycles to
// charge (usually zero) and a non-nil error wrapping ErrFatal when a
// scheduled fatal fault fires.
func (in *Injector) HostTick() (stall float64, err error) {
	if in == nil {
		return 0, nil
	}
	in.hostTick++
	for in.eventCursor < len(in.plan.Events) && in.plan.Events[in.eventCursor].At <= in.hostTick {
		ev := in.plan.Events[in.eventCursor]
		in.eventCursor++
		switch ev.Kind {
		case KillPE:
			in.pending = append(in.pending, ev.PE)
		case FatalStop:
			in.note("fatal", "host", -1)
			return stall, fmt.Errorf("injected at host op %d: %w", in.hostTick, ErrFatal)
		}
	}
	if p := in.plan.Stall; p > 0 && in.rng.Float64() < p {
		in.note("host-stall", "host", -1)
		stall += in.plan.StallCycles
	}
	return stall, nil
}

// Transfer draws the fate of one network transfer of elems elements on
// the named network class ("grid", "router", "reduce").
func (in *Injector) Transfer(network string, elems int) Outcome {
	if in == nil {
		return OK
	}
	if p := in.plan.Drop; p > 0 && in.rng.Float64() < p {
		in.note("drop", network, -1)
		return Drop
	}
	if p := in.plan.Corrupt; p > 0 && in.rng.Float64() < p {
		in.note("corrupt", network, -1)
		return Corrupt
	}
	if p := in.plan.Delay; p > 0 && in.rng.Float64() < p {
		in.note("delay", network, -1)
		return Delay
	}
	return OK
}

// Pick deterministically selects one of n elements (the corruption
// victim of a Corrupt outcome).
func (in *Injector) Pick(n int) int {
	if n <= 0 {
		return 0
	}
	return in.rng.Intn(n)
}

// CorruptBit deterministically selects a mantissa bit to flip.
func (in *Injector) CorruptBit() uint { return uint(in.rng.Intn(52)) }

// DelayCycles is the cost of one injected delay.
func (in *Injector) DelayCycles() float64 { return in.plan.DelayCycles }

// MaxRetries is the per-transfer retransmission budget.
func (in *Injector) MaxRetries() int { return in.plan.MaxRetries }

// RetryWait is the capped exponential backoff wait, in cycles, before
// retransmission number attempt (0-based).
func (in *Injector) RetryWait(attempt int) float64 {
	w := in.plan.RetryBackoff * math.Pow(2, float64(attempt))
	return math.Min(w, in.plan.RetryBackoffCap)
}

// NoteRetry records one retransmission and its extra cycle charge.
func (in *Injector) NoteRetry(site string, cycles float64) {
	in.stats.Retries++
	in.stats.RetryCycles += cycles
	if len(in.log) < maxLog {
		in.log = append(in.log, LogEntry{Tick: in.hostTick, Kind: "retry", Site: site, PE: -1})
	}
	obs.Add(in.rec, "faults/retries", 1)
	obs.Add(in.rec, "faults/retry-cycles", cycles)
	obs.Observe(in.rec, "faults/retry-cycle-dist", cycles)
}

// DispatchTick draws PE deaths for one node dispatch over a machine of
// pes processing elements, returning the newly dead PEs (scheduled
// kills first, then at most one probabilistic death).
func (in *Injector) DispatchTick(pes int) []int {
	if in == nil {
		return nil
	}
	var killed []int
	kill := func(pe int) {
		if pe < 0 || pe >= pes || in.dead[pe] {
			return
		}
		in.dead[pe] = true
		in.stats.DeadPEs = append(in.stats.DeadPEs, pe)
		in.note("pe-kill", "pe", pe)
		killed = append(killed, pe)
	}
	for _, pe := range in.pending {
		kill(pe)
	}
	in.pending = nil
	if p := in.plan.PEKill; p > 0 && in.rng.Float64() < p {
		kill(in.rng.Intn(pes))
	}
	return killed
}

// Degrade reports whether PE death should degrade gracefully (remap
// the dead PE's subgrid) rather than abort with ErrPEDead.
func (in *Injector) Degrade() bool { return !in.plan.NoDegrade }

// DeadCount is the number of dead PEs so far.
func (in *Injector) DeadCount() int {
	if in == nil {
		return 0
	}
	return len(in.dead)
}

// NoteDegraded records one dead-PE remap.
func (in *Injector) NoteDegraded(pe int) {
	in.stats.Degraded++
	if len(in.log) < maxLog {
		in.log = append(in.log, LogEntry{Tick: in.hostTick, Kind: "degrade", Site: "pe", PE: pe})
	}
	obs.Add(in.rec, "faults/degraded", 1)
	obs.Event(in.rec, "fault/degrade", map[string]float64{"tick": float64(in.hostTick), "pe": float64(pe)})
}

// Stats returns the live statistics (the injector keeps accumulating
// into the same object).
func (in *Injector) Stats() *Stats {
	if in == nil {
		return nil
	}
	return &in.stats
}

// Log returns the recorded fault events in injection order (bounded at
// maxLog entries).
func (in *Injector) Log() []LogEntry {
	if in == nil {
		return nil
	}
	return in.log
}

// Checksum is the per-transfer payload checksum: FNV-1a over the IEEE
// bit patterns, so it distinguishes -0/+0 and NaN payload bits that
// float comparison would miss.
func Checksum(data []float64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range data {
		b := math.Float64bits(v)
		for i := 0; i < 64; i += 8 {
			h ^= (b >> i) & 0xff
			h *= prime
		}
	}
	return h
}

// FlipBit returns v with one mantissa bit flipped — the in-flight
// corruption a Corrupt outcome applies to the victim element.
func FlipBit(v float64, bit uint) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ (1 << (bit % 52)))
}
