package main

// Server gates: with -serve BIN swebench launches its own f90yd on a
// loopback port, drives it through one client and drains it. Two
// schedules share those pieces:
//
//   - the load gate (`-serve BIN`, make serve-smoke) sends a
//     deterministic mix — healthy, oracle-verified, fault-injected,
//     budget-killer and oversized runs — from loadClients synchronous
//     clients, then an async overflow burst that must shed at both
//     admission layers (429 tenant_busy and 429 queue_full), and waits
//     for the burst's admitted runs to finish;
//   - the crash gate (`-serve BIN -restart N`, make crash-smoke) runs
//     two phases on fresh durable state dirs, a clean one and one under
//     crashIOFaults (torn and short durable writes). Each records an
//     uninterrupted baseline per program, then N times admits the job
//     mix, SIGKILLs the server mid-run, relaunches it on the same state
//     and polls every acknowledged job: it must end with a result equal
//     to its baseline, or — only under write faults, and only when
//     /statsz reports the damage — be lost as a casualty.
//
// Both fail on a request that gets no HTTP answer, on any status outside
// the documented taxonomy (internal/server/errors.go; a 500 is a bug),
// and on a drain that does not exit 0 with a final snapshot showing
// "draining": true. A failure prints the tail of f90yd's stderr.
//
// The load gate writes "f90y-load/v3" to -o (default LOAD_swe.json):
//
//	{
//	  "schema": "f90y-load/v3",
//	  "requests": 65, "clients": 8,
//	  "outcomes": {"burst 200": 12, "burst 429 queue_full": 4, ...,
//	               "healthy 200": 35, ...},    "class status[ code]": count
//	  "server_stats": {...}                    the drain's final /statsz
//	}
//
// and fails without a healthy 200, a tenant_busy and a queue_full. The
// crash gate writes "f90y-crash/v2" to -o (default CRASH_swe.json):
//
//	{
//	  "schema": "f90y-crash/v2",
//	  "kills": N,                     SIGKILL/relaunch cycles per phase
//	  "phases": [{"io_faults": "", "jobs": 4N, "identical": ...,
//	              "divergences": 0, "casualties": 0,
//	              "server_stats": {...}}, {"io_faults": "seed=3,...", ...}]
//	}
//
// and fails on a divergence, a phase where no job survived to be
// compared, or a clean phase whose last server resumed no job from a
// spill (the kills never interrupted a run that had spilled).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"time"

	"f90y/internal/workload"
)

// documentedStatuses is the server taxonomy of internal/server/errors.go.
var documentedStatuses = map[int]bool{
	200: true, 202: true, 400: true, 404: true, 408: true, 413: true,
	422: true, 429: true, 499: true, 503: true,
}

const (
	serveWait = 15 * time.Second // launch: until /healthz answers
	drainWait = 45 * time.Second // shutdown: SIGTERM until exit
	jobWait   = 2 * time.Minute  // await: until a job is done
)

// ---- client ----

// client is the gates' one way to talk to a server.
type client struct{ url string }

var httpClient = &http.Client{Timeout: 5 * time.Minute}

// view is every answer the gates read, decoded one way: a job
// (/v1/run, /v1/jobs/{id}), a /statsz snapshot, or an error envelope,
// {"error": {"code": ..., "message": ...}}, folded into Code and Error.
type view struct {
	JobID      string          `json:"job_id"`
	Status     string          `json:"status"`
	HTTPStatus int             `json:"http_status"`
	Code       string          `json:"code"`
	Error      string          `json:"error"`
	Result     json.RawMessage `json:"result"`
	Draining   bool            `json:"draining"`
	Durability struct {
		TornRecords   int64 `json:"torn_records"`
		JournalErrors int64 `json:"journal_errors"`
		Unrecoverable int64 `json:"unrecoverable"`
		Resumed       int64 `json:"resumed"`
	} `json:"durability"`
}

// call sends one request — a GET when body is nil, else a POST of body
// as JSON under tenant — and decodes the answer. It is the taxonomy
// check: a status, or a finished job's status, outside
// documentedStatuses is an error.
func (c client) call(path, tenant string, body any) (int, view, error) {
	var v view
	method, rd := "GET", io.Reader(nil)
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, v, err
		}
		method, rd = "POST", bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.url+path, rd)
	if err != nil {
		return 0, v, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 400 {
		err = json.NewDecoder(resp.Body).Decode(&v)
	} else {
		var env struct {
			Error struct{ Code, Message string }
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		v.Code, v.Error = env.Error.Code, env.Error.Message
	}
	switch {
	case !documentedStatuses[resp.StatusCode] || v.HTTPStatus != 0 && !documentedStatuses[v.HTTPStatus]:
		err = fmt.Errorf("%s %s: status %d (job %d %s) is outside the documented taxonomy", method, path, resp.StatusCode, v.HTTPStatus, v.Code)
	case err != nil:
		err = fmt.Errorf("%s %s: status %d: %w", method, path, resp.StatusCode, err)
	}
	return resp.StatusCode, v, err
}

// errGone is await's answer for a job id the server does not know.
var errGone = errors.New("the server does not know the job")

// await polls job id until it is done.
func (c client) await(id string) (view, error) {
	for deadline := time.Now().Add(jobWait); ; time.Sleep(25 * time.Millisecond) {
		status, v, err := c.call("/v1/jobs/"+id, "", nil)
		switch {
		case status == http.StatusNotFound:
			return v, fmt.Errorf("job %s: %w", id, errGone)
		case err != nil || v.Status == "done":
			return v, err
		case time.Now().After(deadline):
			return v, fmt.Errorf("job %s still %q after %v", id, v.Status, jobWait)
		}
	}
}

// ---- launch and shutdown ----

// child is one launched f90yd and the client that drives it.
type child struct {
	client
	cmd  *exec.Cmd
	log  bytes.Buffer  // its stderr; read only once it has exited
	done chan struct{} // closed once it has exited, with err from Wait
	err  error
}

// launch starts bin on a random loopback port with args and waits until
// /healthz answers.
func launch(bin string, args ...string) (*child, error) {
	f, err := os.CreateTemp("", "f90yd-addr-*")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	ch := &child{done: make(chan struct{})}
	ch.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-addr-file", f.Name()}, args...)...)
	ch.cmd.Stderr = &ch.log
	if err := ch.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { ch.err = ch.cmd.Wait(); close(ch.done) }()
	for deadline := time.Now().Add(serveWait); ; {
		if addr, _ := os.ReadFile(f.Name()); len(addr) > 0 {
			ch.url = "http://" + strings.TrimSpace(string(addr))
			if status, _, err := ch.call("/healthz", "", nil); err == nil && status == http.StatusOK {
				return ch, nil
			}
		}
		select {
		case <-ch.done:
			return nil, ch.fail(fmt.Errorf("f90yd exited during startup: %v", ch.err))
		case <-time.After(25 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			ch.kill()
			return nil, ch.fail(fmt.Errorf("f90yd not healthy after %v", serveWait))
		}
	}
}

// kill SIGKILLs the child: the crash under test, or the end of a failed
// gate. Nothing about its exit is checked.
func (ch *child) kill() {
	ch.cmd.Process.Kill()
	<-ch.done
}

// shutdown SIGTERMs the child and requires a clean drain: exit status 0
// and, last on its stderr, a /statsz snapshot that shows draining. It
// returns that snapshot.
func (ch *child) shutdown() (json.RawMessage, error) {
	ch.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-ch.done:
	case <-time.After(drainWait):
		ch.kill()
		return nil, ch.fail(fmt.Errorf("f90yd still running %v after SIGTERM", drainWait))
	}
	if ch.err != nil {
		return nil, ch.fail(fmt.Errorf("f90yd drained with %v", ch.err))
	}
	var snap json.RawMessage
	var v view
	log := ch.log.String()
	i := strings.LastIndex(log, "\n{")
	if i < 0 || json.NewDecoder(strings.NewReader(log[i:])).Decode(&snap) != nil ||
		json.Unmarshal(snap, &v) != nil || !v.Draining {
		return nil, ch.fail(errors.New("f90yd's final stats snapshot does not show draining"))
	}
	return snap, nil
}

// fail appends the tail of the exited child's stderr to err.
func (ch *child) fail(err error) error {
	lines := strings.Split(strings.TrimRight(ch.log.String(), "\n"), "\n")
	return fmt.Errorf("%w\n--- f90yd stderr (tail) ---\n%s", err, strings.Join(lines[max(0, len(lines)-30):], "\n"))
}

// runServe is the -serve entry point: the load gate, or with restart > 0
// the crash gate.
func runServe(w io.Writer, bin string, restart int, out string) error {
	switch {
	case bin == "":
		return errors.New("-restart needs -serve, the f90yd to launch")
	case restart > 0:
		return runCrash(w, bin, restart, out)
	}
	ch, err := launch(bin, loadArgs...)
	if err != nil {
		return err
	}
	rec, err := load(ch.client)
	if err != nil {
		ch.kill()
		return ch.fail(err)
	}
	if rec.ServerStats, err = ch.shutdown(); err != nil {
		return err
	}
	if err := emit(w, out, "LOAD_swe.json", rec); err != nil {
		return err
	}
	if err := writeRecordTo(w, rec.Outcomes); err != nil {
		return err
	}
	return rec.verdict()
}

// ---- the load gate ----

// loadArgs is the load gate's server: 4 workers behind an 8-deep queue
// and a 4-job tenant quota, a default budget that kills a runaway in
// milliseconds, and the stock 1 MiB source bound.
var loadArgs = []string{"-workers", "4", "-queue-depth", "8", "-tenant-inflight", "4",
	"-max-cycles", "5e6", "-request-timeout", "30s", "-drain-timeout", "10s"}

const (
	loadRequests = 48 // the mix
	loadClients  = 8  // its synchronous clients
	burstSize    = 17 // the overflow burst: 5 + 3×4 async runs
)

// loadRunaway never terminates: the server's cycle budget kills it.
const loadRunaway = "program loop\ninteger :: i\ni = 0\ndo while (i < 1)\n  i = i * 1\nend do\nend program loop\n"

// loadMix is request i of the mix: its class, tenant and body, the same
// for every run. Benign traffic rotates over four tenants; runaways all
// come from the "hog" tenant.
func loadMix(i int) (class, tenant string, body map[string]any) {
	src := workload.SWE(16, 1)
	tenant = fmt.Sprintf("bench-%d", i%4)
	switch {
	case i%16 == 7:
		return "verify", tenant, map[string]any{"file": "swe.f90", "source": src, "verify": true}
	case i%16 == 11: // recoverable: retried transfers, still 200
		return "fault", tenant, map[string]any{"file": "swe.f90", "source": src, "faults": "seed=7,drop=0.01"}
	case i%16 == 3 || i%16 == 13:
		return "hog", "hog", map[string]any{"source": loadRunaway, "max_cycles": 2e6}
	case i == 5: // past the 1 MiB bound but inside the body limit, so the server reads it all
		return "oversize", tenant, map[string]any{"source": "! x\n" + strings.Repeat("! padding line to exceed the source byte bound\n", 22800)}
	}
	return "healthy", tenant, map[string]any{"file": "swe.f90", "source": src}
}

// burstRequest is request i of the overflow burst, sent once the mix is
// done: four long runs from one tenant take all four workers and a fifth
// is one past that tenant's quota (tenant_busy); then four quick runs
// from each of three more tenants meet eight queue slots (queue_full).
// The long runs outlast the whole burst, so neither shed depends on
// timing.
func burstRequest(i int) (tenant string, body map[string]any) {
	body = map[string]any{"file": "swe.f90", "source": workload.SWE(16, 1), "async": true}
	if i < 4 {
		body = map[string]any{"file": "loopk.f90", "source": loopKernel(48000), "max_cycles": 1e8, "async": true}
	}
	if i < 5 {
		return "burst-0", body
	}
	return fmt.Sprintf("burst-%d", 1+(i-5)/4), body
}

type loadRecord struct {
	Schema      string          `json:"schema"`
	Requests    int             `json:"requests"`
	Clients     int             `json:"clients"`
	Outcomes    map[string]int  `json:"outcomes"`
	ServerStats json.RawMessage `json:"server_stats,omitempty"`
}

// note counts one request's outcome.
func (rec *loadRecord) note(class string, status int, code string) {
	rec.Outcomes[strings.TrimSpace(fmt.Sprintf("%s %d %s", class, status, code))]++
}

// load sends the mix, then the overflow burst, at c and waits for the
// burst's admitted runs; an admitted run counts by how it ended.
func load(c client) (*loadRecord, error) {
	rec := &loadRecord{Schema: "f90y-load/v3", Requests: loadRequests + burstSize, Clients: loadClients, Outcomes: map[string]int{}}
	type answer struct {
		status int
		v      view
		err    error
	}
	answers := make([]answer, loadRequests)
	var wg sync.WaitGroup
	for k := range loadClients { // client k sends requests k, k+loadClients, ...
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < loadRequests; i += loadClients {
				_, tenant, body := loadMix(i)
				a := &answers[i]
				a.status, a.v, a.err = c.call("/v1/run", tenant, body)
			}
		}()
	}
	wg.Wait()
	for i, a := range answers {
		class, _, _ := loadMix(i)
		if a.err != nil {
			return rec, fmt.Errorf("%s request %d: %w", class, i, a.err)
		}
		rec.note(class, a.status, a.v.Code)
	}

	var ids []string
	for i := range burstSize {
		tenant, body := burstRequest(i)
		status, v, err := c.call("/v1/run", tenant, body)
		switch {
		case err != nil:
			return rec, fmt.Errorf("burst request %d: %w", i, err)
		case status == http.StatusAccepted:
			ids = append(ids, v.JobID)
		default:
			rec.note("burst", status, v.Code)
		}
	}
	for _, id := range ids {
		v, err := c.await(id)
		if err != nil {
			return rec, fmt.Errorf("burst: %w", err)
		}
		rec.note("burst", v.HTTPStatus, v.Code)
	}
	return rec, nil
}

// verdict is the load gate's rule beyond the taxonomy: the server did
// useful work, and shed at both admission layers.
func (rec *loadRecord) verdict() error {
	var errs []error
	if rec.Outcomes["healthy 200"] == 0 {
		errs = append(errs, errors.New("no healthy request completed 200: the server never did useful work under load"))
	}
	for _, code := range []string{"tenant_busy", "queue_full"} {
		if rec.Outcomes["burst 429 "+code] == 0 {
			errs = append(errs, fmt.Errorf("no 429 %s: the overflow burst never overflowed", code))
		}
	}
	return errors.Join(errs...)
}

// ---- the crash gate ----

// crashArgs is the crash gate's server: 2 workers, room for every
// admitted job, and limits no job reaches.
var crashArgs = []string{"-workers", "2", "-queue-depth", "32", "-request-timeout", "5m", "-drain-timeout", "30s"}

// crashIOFaults is the second phase's durable-write damage.
const crashIOFaults = "seed=3,torn=0.08,short=0.08"

// loopKernel computes for about a second per 36,000 iterations (one
// 128x128 dispatch and one top-level host boundary each), far past the
// server's spill floor, so a SIGKILL a quarter of a second in lands
// mid-run on a job that has spilled. Every iteration moves the result.
func loopKernel(iters int) string {
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

// crashProgs is the crash gate's job mix: two long kernels the kill
// interrupts mid-run (the resume path) and two quick ones that usually
// finish first (the finished-record path). All are deterministic, so a
// recovered result must equal the baseline bit for bit.
var crashProgs = []struct{ file, src string }{
	{"loopa.f90", loopKernel(48000)},
	{"loopb.f90", loopKernel(40000)},
	{"swe.f90", workload.SWE(12, 1)},
	{"fig9.f90", workload.Fig9(32)},
}

type crashRecord struct {
	Schema string        `json:"schema"`
	Kills  int           `json:"kills"`
	Phases []*crashPhase `json:"phases"`
}

type crashPhase struct {
	IOFaults    string          `json:"io_faults"`
	Jobs        int             `json:"jobs"`
	Identical   int             `json:"identical"`
	Divergences int             `json:"divergences"`
	Casualties  int             `json:"casualties"` // reported losses, write-faulted phase only
	ServerStats json.RawMessage `json:"server_stats,omitempty"`
}

// runCrash runs the clean phase, then the write-faulted one, kills times
// each, and writes the record.
func runCrash(w io.Writer, bin string, kills int, out string) error {
	rec := crashRecord{Schema: "f90y-crash/v2", Kills: kills}
	for _, faults := range []string{"", crashIOFaults} {
		ph := &crashPhase{IOFaults: faults}
		rec.Phases = append(rec.Phases, ph)
		if err := ph.run(w, bin, kills); err != nil {
			return fmt.Errorf("crash phase %q: %w", faults, err)
		}
		fmt.Fprintf(w, "crash: phase %q: %d cycles, %d jobs: %d identical, %d divergences, %d reported casualties\n",
			faults, kills, ph.Jobs, ph.Identical, ph.Divergences, ph.Casualties)
	}
	if err := emit(w, out, "CRASH_swe.json", rec); err != nil {
		return err
	}
	return rec.verdict()
}

// run is one phase on a fresh state dir: baselines, kills
// SIGKILL-and-relaunch cycles, and a clean drain of the last server.
func (ph *crashPhase) run(w io.Writer, bin string, kills int) (err error) {
	dir, err := os.MkdirTemp("", "f90y-crash-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	args := append([]string{"-state-dir", dir}, crashArgs...)
	if ph.IOFaults != "" {
		args = append(args, "-io-faults", ph.IOFaults)
	}
	ch, err := launch(bin, args...)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil && ch != nil {
			ch.kill()
			err = ch.fail(err)
		}
	}()

	// Uninterrupted baselines, which also warm the artifact cache.
	baseline := make([]json.RawMessage, len(crashProgs))
	for i, p := range crashProgs {
		status, v, err := ch.call("/v1/run", "", map[string]any{"file": p.file, "source": p.src})
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d (%s: %s)", status, v.Code, v.Error)
		}
		if err != nil {
			return fmt.Errorf("baseline %s: %w", p.file, err)
		}
		baseline[i] = v.Result
	}

	for cycle := 1; cycle <= kills; cycle++ {
		var ids []string
		for _, p := range crashProgs {
			status, v, err := ch.call("/v1/run", "", map[string]any{"file": p.file, "source": p.src, "async": true})
			if err == nil && status != http.StatusAccepted {
				err = fmt.Errorf("status %d", status)
			}
			if err != nil {
				return fmt.Errorf("cycle %d admit %s: %w", cycle, p.file, err)
			}
			ids = append(ids, v.JobID)
		}
		ph.Jobs += len(ids)

		// Let the workers get into the long kernels and past their first
		// spill, then pull the plug.
		time.Sleep(250 * time.Millisecond)
		ch.kill()
		if ch, err = launch(bin, args...); err != nil {
			return fmt.Errorf("cycle %d relaunch: %w", cycle, err)
		}
		for i, id := range ids {
			if err := ph.account(w, ch.client, id, baseline[i]); err != nil {
				return fmt.Errorf("cycle %d: %w", cycle, err)
			}
		}
		fmt.Fprintf(w, "crash: cycle %d/%d ok (identical=%d casualties=%d)\n", cycle, kills, ph.Identical, ph.Casualties)
	}
	ph.ServerStats, err = ch.shutdown()
	ch = nil
	return err
}

// account settles one acknowledged job after a relaunch. It must end 200
// and its result is compared with want; a job the server no longer
// knows is a casualty only in the write-faulted phase and only when
// /statsz reports durable damage — otherwise it is silent loss.
func (ph *crashPhase) account(w io.Writer, c client, id string, want json.RawMessage) error {
	v, err := c.await(id)
	if errors.Is(err, errGone) {
		_, st, err := c.call("/statsz", "", nil)
		if err != nil {
			return err
		}
		d := st.Durability
		if ph.IOFaults == "" || d.TornRecords+d.JournalErrors+d.Unrecoverable == 0 {
			return fmt.Errorf("job %s vanished with no reported journal damage: silent loss", id)
		}
		ph.Casualties++
		fmt.Fprintf(w, "crash: job %s lost to reported torn records (forgiven)\n", id)
		return nil
	}
	switch {
	case err != nil:
		return err
	case v.HTTPStatus != http.StatusOK:
		return fmt.Errorf("job %s ended %d (%s): %s", id, v.HTTPStatus, v.Code, v.Error)
	case sameJSON(v.Result, want):
		ph.Identical++
	default:
		ph.Divergences++
		fmt.Fprintf(w, "crash: DIVERGENCE on %s:\n  got  %s\n  want %s\n", id, v.Result, want)
	}
	return nil
}

// verdict is the crash gate's rule beyond silent loss: no divergence,
// something compared in every phase, and a clean phase that resumed a
// job from its spill.
func (rec *crashRecord) verdict() error {
	var errs []error
	for _, ph := range rec.Phases {
		if ph.Divergences > 0 {
			errs = append(errs, fmt.Errorf("phase %q: %d recovered jobs diverged from their baselines", ph.IOFaults, ph.Divergences))
		}
		if ph.Identical == 0 {
			errs = append(errs, fmt.Errorf("phase %q: no job survived to be compared", ph.IOFaults))
		}
	}
	var clean view
	if json.Unmarshal(rec.Phases[0].ServerStats, &clean) != nil || clean.Durability.Resumed == 0 {
		errs = append(errs, errors.New("the clean phase resumed no job from a spill: the kills never interrupted a run that had spilled"))
	}
	return errors.Join(errs...)
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
