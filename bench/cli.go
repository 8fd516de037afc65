package main

// The CLI path: one op is one f90yrun process on a generated source,
// timed from outside, with its CPU and peak RSS taken from the kernel's
// rusage for the child.

import (
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// reference is what a program must print and report: taken once, from a
// run of its own before any timing, never from a timed op.
type reference struct {
	stdout string
	cycles modelCycles
}

// key renders the cycle split as the CLI prints it (whole cycles), the
// form in which CLI reports and server responses are compared.
func (c modelCycles) key() string {
	return fmt.Sprintf("pe %.0f, comm %.0f, host %.0f", c.PE, c.Comm, c.Host)
}

// cliOp is one timed f90yrun process.
type cliOp struct {
	wallMS float64
	cpuMS  float64
	rssMB  float64
	stdout string
	cycles modelCycles
	err    error // non-zero exit or an unparsable report
}

// runCLI runs f90yrun with args and measures the process.
func runCLI(bin string, args ...string) cliOp {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	op := cliOp{wallMS: msSince(start), stdout: stdout.String()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		op.cpuMS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
		op.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err != nil {
		op.err = fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, lastLine(stderr.String()))
		return op
	}
	op.cycles, op.err = parseCyclesLine(stderr.String())
	return op
}

// check compares an op with its reference; a nil error is a correct op.
func (op cliOp) check(ref reference) error {
	switch {
	case op.err != nil:
		return op.err
	case op.stdout != ref.stdout:
		return fmt.Errorf("stdout differs from the reference: got %q want %q", clip(op.stdout), clip(ref.stdout))
	case op.cycles.key() != ref.cycles.key():
		return fmt.Errorf("cycles differ from the reference: got %s want %s", op.cycles.key(), ref.cycles.key())
	}
	return nil
}

// takeReference runs the correctness pass for one program: -verify
// (interp vs cm2 vs cm5) on its reduced twin, or on itself when it has
// none and verifySelf is set, then one plain run whose stdout and cycle
// line become the reference.
func takeReference(bin string, e *env, p program, verifySelf bool) (string, reference, error) {
	path, err := e.writeSource(p.name, p.source)
	if err != nil {
		return "", reference{}, err
	}
	verifyPath := ""
	switch {
	case p.verify != "":
		if verifyPath, err = e.writeSource(p.name+"_verify", p.verify); err != nil {
			return "", reference{}, err
		}
	case verifySelf:
		verifyPath = path
	}
	if verifyPath != "" {
		if op := runCLI(bin, "-verify", verifyPath); op.err != nil {
			return "", reference{}, fmt.Errorf("correctness pass: %v", op.err)
		}
	}
	op := runCLI(bin, path)
	if op.err != nil {
		return "", reference{}, fmt.Errorf("reference run: %v", op.err)
	}
	if op.stdout == "" {
		return "", reference{}, fmt.Errorf("reference run of %s printed nothing to compare", p.name)
	}
	return path, reference{stdout: op.stdout, cycles: op.cycles}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

func clip(s string) string {
	if len(s) > 120 {
		return s[:120] + "..."
	}
	return s
}
