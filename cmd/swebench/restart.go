package main

// Crash-restart harness: with -restart N the suite launches its own
// f90yd (-server-bin) on a durable state dir, fires deterministic jobs
// at it, SIGKILLs the process mid-load, relaunches it, and verifies the
// recovery contract end to end, N times:
//
//   - every job the server acknowledged (202) is accounted for after
//     the restart — resumed from its drain/crash spill or re-run from
//     its journaled admission, never silently lost;
//   - every recovered job's result is byte-identical (DeepEqual on the
//     decoded result payload) to the uninterrupted baseline result for
//     the same program, measured once up front;
//   - no response ever falls outside the documented error taxonomy.
//
// With -restart-io-faults a deterministic torn/short-write spec is
// passed through to the server, so journal records and spills get
// damaged on purpose. Damaged-record casualties (a job id the restarted
// server no longer knows) are then forgiven EXACTLY when the server
// reports them (durability.torn_records > 0 / journal_errors > 0) —
// loss must be reported loss, never silent loss.
//
// A "f90y-crash/v1" record goes to -o (default CRASH_swe.json).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"time"

	"f90y/internal/workload"
)

// crashLoopKernel computes for about a second per 36,000 iterations
// (one 128x128 dispatch and one top-level host boundary each), far past
// the server's spill floor, so a SIGKILL a quarter of a second in lands
// mid-run on a job that has spilled. Every iteration moves the result.
func crashLoopKernel(iters int) string {
	return fmt.Sprintf(`      PROGRAM LOOPK
      REAL A(128,128), B(128,128)
      INTEGER I
      A = 1.5
      B = 0.00001
      DO I = 1, %d
        A = A * B + A
      END DO
      PRINT *, SUM(A)
      END
`, iters)
}

// crashProgs is the deterministic job mix: two long-running kernels
// that the kill interrupts mid-flight (resume path) and two quick ones
// that usually finish first (finished-record recovery path). All are
// deterministic — resumed results must match the baseline bit for bit.
var crashProgs = []struct {
	file string
	src  string
}{
	{"loopa.f90", crashLoopKernel(48000)},
	{"loopb.f90", crashLoopKernel(40000)},
	{"swe.f90", workload.SWE(12, 1)},
	{"fig9.f90", workload.Fig9(32)},
}

// crashRecord is the machine-readable outcome (schema f90y-crash/v1).
type crashRecord struct {
	Schema      string          `json:"schema"`
	Cycles      int             `json:"cycles"`
	Jobs        int             `json:"jobs"`
	Identical   int             `json:"identical"`
	Divergences int             `json:"divergences"`
	Casualties  int             `json:"casualties"` // reported torn-record losses (io-fault runs only)
	IOFaults    string          `json:"io_faults,omitempty"`
	ServerStats json.RawMessage `json:"server_stats,omitempty"`
}

// serverProc is one epoch of the managed f90yd.
type serverProc struct {
	cmd *exec.Cmd
	url string
}

// launchServer starts f90yd on stateDir and waits for /healthz.
func launchServer(bin, stateDir, addrFile, ioFaults string, logw io.Writer) (*serverProc, error) {
	os.Remove(addrFile)
	args := []string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-workers", "2", "-queue-depth", "32",
		"-state-dir", stateDir,
		"-request-timeout", "5m", "-drain-timeout", "30s",
	}
	if ioFaults != "" {
		args = append(args, "-io-faults", ioFaults)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logw
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("launch %s: %w", bin, err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			url := "http://" + strings.TrimSpace(string(data))
			if err := waitServe(&http.Client{Timeout: 5 * time.Second}, url); err == nil {
				return &serverProc{cmd: cmd, url: url}, nil
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("server never became healthy (state dir %s)", stateDir)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// kill SIGKILLs the epoch — the crash under test, no drain, no warning.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// shutdown drains the epoch gracefully (SIGTERM, bounded wait).
func (p *serverProc) shutdown() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(45 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// crashClient wraps the typed calls the harness needs.
type crashClient struct{ c *http.Client }

type crashJobView struct {
	JobID      string          `json:"job_id"`
	Status     string          `json:"status"`
	HTTPStatus int             `json:"http_status"`
	Code       string          `json:"code"`
	Error      string          `json:"error"`
	Result     json.RawMessage `json:"result"`
}

// post runs one request body against url, decoding the jobView shape.
func (cc crashClient) post(url string, body map[string]any) (int, crashJobView, error) {
	var v crashJobView
	b, err := json.Marshal(body)
	if err != nil {
		return 0, v, err
	}
	resp, err := cc.c.Post(url+"/v1/run", "application/json", strings.NewReader(string(b)))
	if err != nil {
		return 0, v, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil && err != io.EOF {
		return resp.StatusCode, v, err
	}
	return resp.StatusCode, v, nil
}

// getJob fetches one job; a 404 is reported via found=false, not error.
func (cc crashClient) getJob(url, id string) (found bool, v crashJobView, err error) {
	resp, err := cc.c.Get(url + "/v1/jobs/" + id)
	if err != nil {
		return false, v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return false, v, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return true, v, err
	}
	return true, v, nil
}

// tornReported checks /statsz for evidence the server itself noticed
// durable-write damage; only then may a lost job id be forgiven.
func (cc crashClient) tornReported(url string) (bool, json.RawMessage) {
	resp, err := cc.c.Get(url + "/statsz")
	if err != nil {
		return false, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, nil
	}
	var st struct {
		Durability *struct {
			TornRecords     int64 `json:"torn_records"`
			JournalErrors   int64 `json:"journal_errors"`
			SpillCasualties int64 `json:"spill_casualties"`
			Unrecoverable   int64 `json:"unrecoverable"`
		} `json:"durability"`
	}
	if json.Unmarshal(body, &st) != nil || st.Durability == nil {
		return false, body
	}
	d := st.Durability
	return d.TornRecords > 0 || d.JournalErrors > 0 || d.Unrecoverable > 0, body
}

// runRestart is the -restart entry point.
func runRestart(w io.Writer, bin string, cycles int, stateDir, ioFaults, outPath string) error {
	if bin == "" {
		return fmt.Errorf("-restart requires -server-bin (path to f90yd)")
	}
	if stateDir == "" {
		dir, err := os.MkdirTemp("", "f90y-crash-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		stateDir = dir
	}
	addrFile := filepath.Join(stateDir, "addr")
	cc := crashClient{c: &http.Client{Timeout: 5 * time.Minute}}

	srv, err := launchServer(bin, stateDir, addrFile, ioFaults, io.Discard)
	if err != nil {
		return err
	}
	alive := true
	defer func() {
		if alive {
			srv.shutdown()
		}
	}()

	// Uninterrupted baselines: one sync run per program. These also prove
	// the server healthy before any crash, and warm the artifact cache.
	baseline := make([]json.RawMessage, len(crashProgs))
	for i, p := range crashProgs {
		st, v, err := cc.post(srv.url, map[string]any{"file": p.file, "source": p.src})
		if err != nil {
			return fmt.Errorf("baseline %s: %w", p.file, err)
		}
		if st != 200 || v.Result == nil {
			return fmt.Errorf("baseline %s: status %d (%s: %s)", p.file, st, v.Code, v.Error)
		}
		baseline[i] = v.Result
	}
	fmt.Fprintf(w, "crash: baselines recorded for %d programs; starting %d SIGKILL cycles\n", len(crashProgs), cycles)

	rec := crashRecord{Schema: "f90y-crash/v1", Cycles: cycles, IOFaults: ioFaults}
	for cycle := 1; cycle <= cycles; cycle++ {
		// Admit one async job per program; all four must be acknowledged.
		type pending struct {
			id   string
			prog int
		}
		var jobs []pending
		for i, p := range crashProgs {
			st, v, err := cc.post(srv.url, map[string]any{"file": p.file, "source": p.src, "async": true})
			if err != nil {
				return fmt.Errorf("cycle %d admit %s: %w", cycle, p.file, err)
			}
			if st != 202 || v.JobID == "" {
				return fmt.Errorf("cycle %d admit %s: status %d", cycle, p.file, st)
			}
			jobs = append(jobs, pending{id: v.JobID, prog: i})
		}
		rec.Jobs += len(jobs)

		// Let the workers get into the long kernels and past their first
		// spill, then pull the plug.
		time.Sleep(250 * time.Millisecond)
		srv.kill()
		alive = false

		srv, err = launchServer(bin, stateDir, addrFile, ioFaults, io.Discard)
		if err != nil {
			return fmt.Errorf("cycle %d relaunch: %w", cycle, err)
		}
		alive = true

		// Every acknowledged job must reach a terminal state and match
		// its baseline; a vanished id is tolerable only as a REPORTED
		// torn-record casualty under io-fault injection.
		for _, j := range jobs {
			deadline := time.Now().Add(2 * time.Minute)
			for {
				found, v, err := cc.getJob(srv.url, j.id)
				if err != nil {
					return fmt.Errorf("cycle %d poll %s: %w", cycle, j.id, err)
				}
				if !found {
					reported, _ := cc.tornReported(srv.url)
					if ioFaults != "" && reported {
						rec.Casualties++
						fmt.Fprintf(w, "crash: cycle %d job %s lost to reported torn records (forgiven)\n", cycle, j.id)
						break
					}
					return fmt.Errorf("cycle %d: job %s vanished with no reported journal damage — silent loss", cycle, j.id)
				}
				if v.Status == "done" {
					if v.HTTPStatus != 200 {
						return fmt.Errorf("cycle %d: job %s (%s) ended (%d, %s): %s",
							cycle, j.id, crashProgs[j.prog].file, v.HTTPStatus, v.Code, v.Error)
					}
					if sameJSON(v.Result, baseline[j.prog]) {
						rec.Identical++
					} else {
						rec.Divergences++
						fmt.Fprintf(w, "crash: cycle %d DIVERGENCE on %s (%s):\n  got  %s\n  want %s\n",
							cycle, j.id, crashProgs[j.prog].file, v.Result, baseline[j.prog])
					}
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("cycle %d: job %s stuck at %q after relaunch", cycle, j.id, v.Status)
				}
				time.Sleep(25 * time.Millisecond)
			}
		}
		fmt.Fprintf(w, "crash: cycle %d/%d ok (identical=%d casualties=%d)\n", cycle, cycles, rec.Identical, rec.Casualties)
	}

	_, stats := cc.tornReported(srv.url)
	rec.ServerStats = stats
	srv.shutdown()
	alive = false

	if outPath == "" {
		outPath = "CRASH_swe.json"
	}
	if err := writeRecord(outPath, rec); err != nil {
		return err
	}
	fmt.Fprintln(w, outPath)
	fmt.Fprintf(w, "crash: %d cycles, %d jobs: %d identical, %d divergences, %d reported casualties\n",
		rec.Cycles, rec.Jobs, rec.Identical, rec.Divergences, rec.Casualties)
	if rec.Divergences > 0 {
		return fmt.Errorf("%d resumed jobs diverged from their uninterrupted baselines", rec.Divergences)
	}
	if rec.Identical == 0 {
		return fmt.Errorf("no job survived to be compared — the harness never exercised recovery")
	}
	return nil
}

// sameJSON compares two JSON payloads structurally (key order and
// whitespace independent; numbers compare by their decoded values,
// which round-trip float64 bit patterns exactly).
func sameJSON(a, b json.RawMessage) bool {
	var va, vb any
	if json.Unmarshal(a, &va) != nil || json.Unmarshal(b, &vb) != nil {
		return false
	}
	return reflect.DeepEqual(va, vb)
}
