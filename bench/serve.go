package main

// The serve path: a freshly built f90yd child on loopback and a
// closed-loop load generator in this process. One op is one POST /v1/run,
// timed at the client from just before the request is written to after
// the response body is read.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// coldCacheEntries bounds serve_cold's artifact LRU below its warm-up
// count, so evictions run through the whole timed window rather than
// starting part-way into it.
const coldCacheEntries = 128

// server is one f90yd child.
type server struct {
	cmd      *exec.Cmd
	addr     string
	stateDir string
	logPath  string
	waited   chan error
}

// startServer launches f90yd on a kernel-chosen loopback port and waits
// for it to publish the address.
func startServer(e *env, w workload) (*server, error) {
	dir, err := os.MkdirTemp(e.work, "f90yd-")
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	s := &server{logPath: filepath.Join(dir, "f90yd.log"), waited: make(chan error, 1)}
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-workers", "2"}
	if w.cold {
		args = append(args, "-cache-entries", strconv.Itoa(coldCacheEntries))
	}
	if w.durable {
		// Under the checkout, so the journal's fsyncs hit the repository's
		// own filesystem rather than a tmpfs.
		s.stateDir = filepath.Join(dir, "state")
		args = append(args, "-state-dir", s.stateDir)
	}
	logFile, err := os.Create(s.logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	s.cmd = exec.Command(e.bin("f90yd"), args...)
	s.cmd.Stderr = logFile
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.waited <- s.cmd.Wait() }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			s.addr = string(data)
			return s, nil
		}
		select {
		case err := <-s.waited:
			return nil, fmt.Errorf("f90yd exited before listening: %v: %s", err, s.logTail())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("f90yd never published its address: %s", s.logTail())
		}
	}
}

// stop SIGTERMs the child, waits for its drain, kills it if the drain
// hangs, and removes its state directory. Safe to call twice.
func (s *server) stop() error {
	if s == nil || s.cmd == nil {
		return nil
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-s.waited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.waited
		err = fmt.Errorf("f90yd ignored SIGTERM for 20 s and was killed")
	}
	s.waited <- err
	if s.stateDir != "" {
		os.RemoveAll(s.stateDir)
	}
	return err
}

func (s *server) logTail() string {
	data, _ := os.ReadFile(s.logPath)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// cpuMS is the child's user+system CPU so far, from /proc/<pid>/stat
// (fields 14 and 15, in clock ticks of 10 ms).
func (s *server) cpuMS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat times")
	}
	return (utime + stime) * 10, nil
}

// peakRSSMB is the child's peak resident set so far (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// statsz is the part of f90yd's /statsz snapshot the benchmark reads.
type statsz struct {
	Jobs struct {
		ByStatus map[string]int64 `json:"by_status"`
	} `json:"jobs"`
	Cache struct {
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Durability *struct {
		JournalRecords int64 `json:"journal_records"`
		JournalBytes   int64 `json:"journal_bytes"`
		SpillWrites    int64 `json:"spill_writes"`
	} `json:"durability"`
}

// reqSample is one request as the client saw it.
type reqSample struct {
	latMS   float64
	queueMS float64
	runMS   float64
	cached  bool
	err     error // anything but a 200 with the reference output and cycles
}

// load is the closed-loop generator: each client sends its next request
// only after the previous response has been read.
type load struct {
	client   *http.Client
	url      string
	cold     bool
	programs []program
	refs     []reference
	bodies   [][]byte     // pre-encoded request bodies (hot traffic)
	next     atomic.Int64 // request counter, shared by warm-up and window
}

// loadClients is the number of closed-loop clients: two, or the number of
// processors when that is smaller, all connections from this one process.
func loadClients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func newLoad(s *server, w workload, programs []program, refs []reference) *load {
	n := loadClients()
	l := &load{
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n},
			Timeout:   60 * time.Second,
		},
		url:      "http://" + s.addr,
		cold:     w.cold,
		programs: programs,
		refs:     refs,
	}
	if !w.cold {
		for _, p := range programs {
			l.bodies = append(l.bodies, encodeRun(p.name, p.source))
		}
	}
	return l
}

func encodeRun(name, src string) []byte {
	body, _ := json.Marshal(map[string]string{"file": name + ".f90", "source": src})
	return body
}

// one sends request number i and checks the response against the CLI
// reference of the source it carried.
func (l *load) one(i int64) reqSample {
	k := int(i % int64(len(l.programs)))
	want := l.refs[k]
	var body []byte
	if l.cold {
		nonce := int(i) + 1 // 0 is the reference program itself
		body = encodeRun(l.programs[k].name, withNonce(l.programs[k].source, nonce))
		want.stdout = nonceOutput(want.stdout, nonce)
	} else {
		body = l.bodies[k]
	}
	start := time.Now()
	resp, err := l.client.Post(l.url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return reqSample{latMS: msSince(start), err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := reqSample{latMS: msSince(start)}
	if err != nil {
		s.err = err
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, clip(string(data)))
		return s
	}
	r, out, cyc, err := parseRunResponse(data)
	s.queueMS, s.runMS, s.cached = r.QueueMS, r.RunMS, r.Cached
	switch {
	case err != nil:
		s.err = err
	case out != want.stdout:
		s.err = fmt.Errorf("output differs from the CLI reference: got %q want %q", clip(out), clip(want.stdout))
	case cyc.key() != want.cycles.key():
		s.err = fmt.Errorf("cycles differ from the CLI reference: got %s want %s", cyc.key(), want.cycles.key())
	}
	return s
}

// run drives the clients until stop reports true for the number of
// requests already issued, and returns every sample with the wall-clock
// the loop took.
func (l *load) run(stop func(issued int64) bool) ([]reqSample, time.Duration) {
	n := loadClients()
	per := make([][]reqSample, n)
	var issued atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop(issued.Add(1) - 1) {
				per[c] = append(per[c], l.one(l.next.Add(1)-1))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []reqSample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// statsz fetches the server's counters.
func (l *load) statsz() (statsz, error) {
	var st statsz
	resp, err := l.client.Get(l.url + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
