package server

// HTTP handlers and JSON request/response shapes. Validation failures
// (400/413) are decided before admission; everything after admission is
// classified by errors.go from the sentinel chain the pipeline already
// produces.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"f90y"
	"f90y/internal/driver"
	"f90y/internal/opt"
	"f90y/internal/oracle"
	"f90y/internal/pe"
)

// tenantOf resolves the tenant token: the X-Tenant header, defaulting
// to "anon". Quotas are per token; isolation between tokens is the
// contract TestTenantQuotaIsolation enforces.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anon"
}

// configSpec selects the compiler configuration by level name, keeping
// the wire format decoupled from the option structs (which are cache-
// key material; see driver.Fingerprint).
type configSpec struct {
	// Opt is the NIR transformation level: "default" (all passes, the
	// default) or "naive" (none).
	Opt string `json:"opt,omitempty"`
	// PE is the PE code-generator level: "optimized" (the default) or
	// "naive".
	PE string `json:"pe,omitempty"`
}

func (cs configSpec) build() (f90y.Config, error) {
	cfg := f90y.DefaultConfig()
	switch cs.Opt {
	case "", "default":
	case "naive":
		cfg.Opt = opt.Options{}
	default:
		return cfg, fmt.Errorf("unknown config.opt %q (want default or naive)", cs.Opt)
	}
	switch cs.PE {
	case "", "optimized":
	case "naive":
		cfg.PE = pe.Naive
	default:
		return cfg, fmt.Errorf("unknown config.pe %q (want optimized or naive)", cs.PE)
	}
	return cfg, nil
}

// runRequest is the POST /v1/run body.
type runRequest struct {
	File   string     `json:"file,omitempty"`
	Source string     `json:"source"`
	Target string     `json:"target,omitempty"` // a driver.Targets name; "" is the default machine
	Config configSpec `json:"config"`
	// MaxCycles asks for a cycle budget; the tenant cap clamps it (a
	// request may ask for less, never more).
	MaxCycles float64 `json:"max_cycles,omitempty"`
	// Numeric is the numeric-exception plane: "", "off", "record", "trap".
	Numeric string `json:"numeric,omitempty"`
	// Faults attaches a deterministic fault-injection spec (the same
	// grammar as the CLIs' -faults flag).
	Faults string `json:"faults,omitempty"`
	// Verify runs the differential oracle (the interpreter against every
	// machine of the table, under this request's config) after a
	// successful run; a divergence fails the job with 422.
	Verify bool `json:"verify,omitempty"`
	// TimeoutMS asks for a per-job wall-clock deadline; the server's
	// RequestTimeout clamps it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Async admits the job and returns 202 immediately; poll
	// GET /v1/jobs/{id} for the outcome.
	Async bool `json:"async,omitempty"`
}

// compileRequest is the POST /v1/compile body.
type compileRequest struct {
	File   string     `json:"file,omitempty"`
	Source string     `json:"source"`
	Config configSpec `json:"config"`
}

// runResult is a finished job's payload; run jobs fill the execution
// fields, compile jobs the artifact fields.
type runResult struct {
	Target    string      `json:"target,omitempty"`
	GFLOPS    float64     `json:"gflops,omitempty"`
	Flops     int64       `json:"flops,omitempty"`
	NodeCalls int         `json:"node_calls,omitempty"`
	CommCalls int         `json:"comm_calls,omitempty"`
	Cycles    *cyclesJSON `json:"cycles,omitempty"`
	Output    []string    `json:"output,omitempty"`

	Routines    int    `json:"routines,omitempty"`
	HostOps     int    `json:"host_ops,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	SourceSHA   string `json:"source_sha256,omitempty"`

	Verified *verifyJSON `json:"verified,omitempty"`
}

type cyclesJSON struct {
	Host  float64 `json:"host"`
	PE    float64 `json:"pe"`
	Comm  float64 `json:"comm"`
	Total float64 `json:"total"`
}

type verifyJSON struct {
	Vars  int `json:"vars"`
	Elems int `json:"elems"`
}

// fail writes the error envelope, counting the response and setting
// Retry-After on 429/503.
func (s *Server) fail(w http.ResponseWriter, status int, env apiError) {
	s.stats.note(status, env.Error.Code)
	if env.Error.RetryAfterMS > 0 {
		secs := (env.Error.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	s.writeJSON(w, status, env)
}

// decode reads a JSON body bounded by the tenant source quota (plus
// envelope headroom), distinguishing oversize (413) from malformed
// (400).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	limit := int64(s.cfg.Quotas.MaxSourceBytes) + 64<<10
	if s.cfg.Quotas.MaxSourceBytes <= 0 {
		limit = 64 << 20
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				errorf(CodeSourceTooLarge, "request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		s.fail(w, http.StatusBadRequest, errorf(CodeBadRequest, "malformed JSON body: %v", err))
		return false
	}
	return true
}

// checkSource applies the per-tenant source byte quota.
func (s *Server) checkSource(w http.ResponseWriter, src string) bool {
	if src == "" {
		s.fail(w, http.StatusBadRequest, errorf(CodeBadRequest, "source is required"))
		return false
	}
	if max := s.cfg.Quotas.MaxSourceBytes; max > 0 && len(src) > max {
		s.fail(w, http.StatusRequestEntityTooLarge,
			errorf(CodeSourceTooLarge, "source is %d bytes; the per-tenant bound is %d", len(src), max))
		return false
	}
	return true
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.fail(w, http.StatusNotFound, errorf(CodeNotFound, "no such route: %s %s", r.Method, r.URL.Path))
	})
	return mux
}

// handleHealthz: liveness — the process is up. Always 200.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz: readiness — 503 as the very first step of a drain
// (notReady flips before admission closes), so load balancers stop
// routing here while in-flight work is still being checkpointed. It
// takes no lock: admitMu is held across an admission's journal fsync,
// and a slow disk must not read as "not ready".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() || s.notReady.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	js := s.jobs.get(r.PathValue("id"))
	if js == nil {
		s.fail(w, http.StatusNotFound, errorf(CodeNotFound, "no such job %q (finished jobs are retained up to %d)", r.PathValue("id"), s.cfg.RetainedJobs))
		return
	}
	s.writeJSON(w, http.StatusOK, js.view())
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req compileRequest
	if !s.decode(w, r, &req) || !s.checkSource(w, req.Source) {
		return
	}
	js := s.jobs.newJob(tenantOf(r), "compile")
	// Compile specs journal in the run-request shape (the fields align);
	// kind selects the compile path when the job is rebuilt.
	js.spec = &runRequest{File: req.File, Source: req.Source, Config: req.Config}
	if err := s.jobFromSpec(js); err != nil {
		s.jobs.drop(js)
		s.fail(w, http.StatusBadRequest, errorf(CodeBadRequest, "%v", err))
		return
	}
	js.ctx, js.cancel = withJobContext(s.baseCtx)
	if status, env := s.admit(js); status != 0 {
		s.fail(w, status, env)
		return
	}
	s.waitSync(w, r, js)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !s.decode(w, r, &req) || !s.checkSource(w, req.Source) {
		return
	}
	js := s.jobs.newJob(tenantOf(r), "run")
	js.spec = &req
	if err := s.jobFromSpec(js); err != nil {
		s.jobs.drop(js)
		s.fail(w, http.StatusBadRequest, errorf(CodeBadRequest, "%v", err))
		return
	}
	js.ctx, js.cancel = withJobContext(s.baseCtx)
	if status, env := s.admit(js); status != 0 {
		s.fail(w, status, env)
		return
	}
	if req.Async {
		s.stats.note(http.StatusAccepted, "")
		s.writeJSON(w, http.StatusAccepted, js.view())
		return
	}
	s.waitSync(w, r, js)
}

// jobFromSpec validates js.spec and materializes the driver job and
// control plane onto js. It is the single constructor for both the
// admission handlers and journal recovery, so a job rebuilt from its
// journaled spec is configured exactly like the original admission.
func (s *Server) jobFromSpec(js *jobState) error {
	req := js.spec
	if req.Source == "" {
		return fmt.Errorf("source is required")
	}
	cfg, err := req.Config.build()
	if err != nil {
		return err
	}
	file := req.File
	if file == "" {
		file = "prog.f90"
	}
	if js.kind == "compile" {
		js.job = driver.Job{Name: js.id, File: file, Source: req.Source, Config: cfg}
		return nil
	}
	machine, err := driver.Target(req.Target, 0)
	if err != nil {
		return err
	}
	if req.MaxCycles < 0 || req.TimeoutMS < 0 {
		return fmt.Errorf("max_cycles and timeout_ms must be >= 0")
	}

	// Quota resolution: the request may narrow its budget, never widen
	// it past the tenant cap. Enforcement itself is the runtime watchdog
	// (rt.ErrBudget), not a second mechanism. The control plane is built
	// where the CLIs build theirs; a served job names no checkpoint or
	// resume file.
	budget := s.cfg.Quotas.budget(req.MaxCycles)
	ctl, err := driver.ControlOptions{Faults: req.Faults, MaxCycles: budget, Numeric: req.Numeric}.Build(file, nil)
	if err != nil {
		return err
	}
	js.job = driver.Job{
		Name:    js.id,
		File:    file,
		Source:  req.Source,
		Config:  cfg,
		Machine: machine,
		Ctl:     ctl,
	}
	if req.TimeoutMS > 0 {
		js.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return nil
}

// waitSync blocks the handler until the admitted job finishes. A client
// that disconnects first cancels the job's context with cause
// ErrClientClosed: the run dies at the next host-op boundary and is
// recorded as 499, and the worker moves on — an abandoned request never
// strands a worker. The job's terminal status was counted by runJob, so
// nothing is double-counted here.
func (s *Server) waitSync(w http.ResponseWriter, r *http.Request, js *jobState) {
	stop := context.AfterFunc(r.Context(), func() { js.cancel(ErrClientClosed) })
	<-js.done
	stop()
	v := js.view()
	if v.HTTPStatus >= 400 {
		env := errorf(v.Code, "%s", v.Error)
		// 503s out of a drain (suspended / force-killed) advise the caller
		// when to come back, like the admission-side 429/503 path. The
		// terminal status was already counted by runJob.
		if v.HTTPStatus == http.StatusServiceUnavailable {
			env.Error.RetryAfterMS = s.retryAfter().Milliseconds()
			secs := (env.Error.RetryAfterMS + 999) / 1000
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		}
		s.writeJSON(w, v.HTTPStatus, env)
		return
	}
	s.writeJSON(w, v.HTTPStatus, v)
}

// withJobContext derives a job's cancellable context from the server
// base context (so Drain's force-kill reaches every job).
func withJobContext(base context.Context) (context.Context, context.CancelCauseFunc) {
	return context.WithCancelCause(base)
}

// execute runs one admitted job's work under ctx and returns its
// terminal (status, code, error message, payload, cache-hit flag).
func (s *Server) execute(ctx context.Context, js *jobState) (int, Code, string, *runResult, bool) {
	if js.kind == "compile" {
		art, cached, err := s.svc.CompileCached(ctx, js.job.File, js.job.Source, js.job.Config)
		if err != nil {
			status, code := classify(err, true)
			return status, code, err.Error(), nil, cached
		}
		ops := 0
		for _, n := range art.Program.CountOps() {
			ops += n
		}
		sum := sha256.Sum256([]byte(js.job.Source))
		return http.StatusOK, "", "", &runResult{
			Routines:    len(art.Program.Routines),
			HostOps:     ops,
			Fingerprint: art.Key.Config,
			SourceSHA:   fmt.Sprintf("%x", sum),
		}, cached
	}

	res := s.svc.Run(ctx, js.job)
	if res.Err != nil {
		status, code := classify(res.Err, res.Artifact == nil)
		return status, code, res.Err.Error(), nil, res.Cached
	}
	cr := res.Result
	// Everything the response carries is copied out of the store below;
	// its slabs go back to the arena for the next run.
	defer cr.Store.Release()
	out := &runResult{
		Target:    js.job.Machine.Name,
		GFLOPS:    cr.GFLOPS(),
		Flops:     cr.Flops,
		NodeCalls: cr.NodeCalls,
		CommCalls: cr.CommCalls,
		Cycles: &cyclesJSON{
			Host:  cr.HostCycles,
			PE:    cr.PECycles,
			Comm:  cr.CommCycles,
			Total: cr.TotalCycles(),
		},
		Output: cr.Output,
	}
	if js.spec.Verify {
		// The oracle compiles (under the job's config) and runs every
		// backend itself; the job's budget bounds each of them
		// (rt.ErrBudget on overrun). It is not context-aware — the
		// budget, not the deadline, is its backstop.
		rep, err := oracle.Verify(js.job.File, js.job.Source, oracle.Options{Config: &js.job.Config, MaxCycles: js.job.Ctl.MaxCycles})
		if err != nil {
			status, code := classify(err, false)
			if code == CodeRun {
				code = CodeVerifyFailed
			}
			return status, code, fmt.Sprintf("verify: %v", err), nil, res.Cached
		}
		out.Verified = &verifyJSON{Vars: rep.Vars, Elems: rep.Elems}
	}
	return http.StatusOK, "", "", out, res.Cached
}
