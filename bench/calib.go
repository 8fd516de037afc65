package main

// Host-speed calibration. The VMs this benchmark runs on share their
// cores and memory system with other tenants, and their speed drifts: the
// same f90yrun binary on the same source was measured at a 250 ms median
// in one quarter-hour and 410 ms in another, with whole minutes slow at a
// time, so no statistic taken inside one run can remove it (README.md has
// the series). Raw wall-clock from two runs minutes apart therefore
// compares two machines, not two programs.
//
// So every run also times a fixed kernel of its own, interleaved with the
// ops, and reports each timing scaled to the speed the kernel saw:
//
//	reported = raw × calibNominalMS / median(kernel time in this run)
//
// The kernel never changes and shares no code with the program under
// test, so a change to the program moves the reported numbers exactly as
// it moves the raw ones, while a slower or faster hour of the host moves
// them about a third as much. The raw values and the factor are printed
// with every run.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// calibNominalMS fixes the scale of reported times: they are milliseconds
// on a host that runs the kernel in this long, which is what the
// reference box does in its quiet stretches with the kernel between ops
// (back to back, with its caches warm, it takes 40 ms). Changing it
// rescales every timing and invalidates comparisons with earlier runs.
const calibNominalMS = 50.0

const (
	calibElems  = 2 << 20 // 16 MB per array: past the L2, so memory speed counts
	calibPasses = 8
	calibNodes  = 120000
)

type calibNode struct {
	key   int
	next  *calibNode
	label string
}

// calibKernel is the fixed work: a floating-point stream over two arrays
// (what PE kernels and CSHIFT moves do) then building and walking a linked
// map of small allocations (what the compiler does). The two halves take
// about as long as each other, and a blend of the two tracked each CLI
// workload better than either alone.
func calibKernel(a, b []float64) float64 {
	for p := 0; p < calibPasses; p++ {
		c := 0.5 + float64(p)*0.001
		for i := range a {
			a[i] = a[i]*c + b[i]*0.25 + 0.125
		}
	}
	index := map[int]*calibNode{}
	var head *calibNode
	for i := 0; i < calibNodes; i++ {
		n := &calibNode{key: i, next: head, label: fmt.Sprint(i)}
		head = n
		index[i*7919%1000003] = n
	}
	sum := 0
	for n := head; n != nil; n = n.next {
		if index[n.key*7919%1000003] == n {
			sum += len(n.label)
		}
	}
	return a[17] + float64(sum)
}

// calibServe is the benchmark re-executed as a helper (-calibrate): for
// every line on stdin it times the kernel once and prints the
// milliseconds. The kernel runs in a process of its own because its
// arrays would otherwise sit in the harness: on Linux a child's ru_maxrss
// starts from its parent's peak at the fork, so a large harness would
// report its own footprint as f90yrun's.
//
// The helper collects its garbage between timings and never inside one:
// left to itself the collector lands inside about every other timing and
// makes the allocation half read 27 or 37 ms, a third of noise that says
// nothing about the host.
func calibServe(in io.Reader, out io.Writer) error {
	debug.SetGCPercent(-1)
	a, b := make([]float64, calibElems), make([]float64, calibElems)
	for i := range b {
		a[i], b[i] = 0.5, float64(i%17)/17 // touch every page before any timing
	}
	lines := bufio.NewScanner(in)
	for lines.Scan() {
		runtime.GC()
		t0 := time.Now()
		calibKernel(a, b)
		if _, err := fmt.Fprintf(out, "%.6f\n", msSince(t0)); err != nil {
			return err
		}
	}
	return lines.Err()
}

// speed is one run's kernel timings, taken through a calibServe child.
type speed struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	ms    []float64
	spent time.Duration
}

func newSpeed() (*speed, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &speed{cmd: exec.Command(self, "-calibrate")}
	s.cmd.Stderr = os.Stderr
	if s.in, err = s.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.out = bufio.NewReader(stdout)
	return s, s.cmd.Start()
}

// close ends the helper (it exits when its stdin closes) and waits for it.
func (s *speed) close() {
	s.in.Close()
	s.cmd.Wait()
}

// sample times the kernel once.
func (s *speed) sample() error {
	start := time.Now()
	if _, err := io.WriteString(s.in, "\n"); err != nil {
		return fmt.Errorf("calibration helper: %v", err)
	}
	line, err := s.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("calibration helper: %v", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		return fmt.Errorf("calibration helper: %v", err)
	}
	s.ms = append(s.ms, v)
	s.spent += time.Since(start)
	return nil
}

// sampleN times the kernel n times.
func (s *speed) sampleN(n int) error {
	for i := 0; i < n; i++ {
		if err := s.sample(); err != nil {
			return err
		}
	}
	return nil
}

// factor is what a raw time is multiplied by to report it at the nominal
// host speed.
func (s *speed) factor() float64 { return calibNominalMS / median(s.ms) }

func (s *speed) note() string {
	return fmt.Sprintf("host speed: kernel median %.2f ms over %d samples; reported = raw x %.4f",
		median(s.ms), len(s.ms), s.factor())
}
