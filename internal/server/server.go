// Package server is f90yd's hardened multi-tenant compile-and-run HTTP
// server over internal/driver: the "millions of users" network boundary
// the ROADMAP's first open item calls for. The robustness spine:
//
//   - Bounded admission: a fixed-depth queue in front of a fixed worker
//     pool. Overflow is rejected at the edge with 429 + Retry-After —
//     the pipeline never sees load it cannot carry.
//   - Per-tenant quotas (quota.go): in-flight job caps, source-size
//     caps, and cycle budgets enforced through the EXISTING watchdog
//     hook (cm2.Control.MaxCycles → rt.ErrBudget) rather than a second
//     enforcement path — one kill site, one error chain, deterministic.
//   - Per-request deadlines mapped onto the end-to-end context plumbing
//     that already reaches every pipeline phase and host-op boundary.
//   - A typed error taxonomy (errors.go): every expected failure mode
//     maps to a documented status + JSON code; 500 means a bug.
//   - LRU + byte bounds on the artifact cache (driver.MaxCacheEntries/
//     MaxCacheBytes), singleflight semantics preserved.
//   - Graceful drain on SIGTERM: stop admitting (readyz → 503), let
//     in-flight jobs finish inside a grace period, budget-kill the
//     stragglers via context cause ErrDraining, flush /statsz.
//   - A crash-safe durability plane (durable.go, journal.go) behind
//     Config.StateDir: admitted jobs are journaled, drain checkpoints
//     in-flight runs instead of killing them, and a restarted server
//     replays the journal — resuming checkpointed runs bit-identically,
//     re-running never-started jobs, and re-serving finished results.
//     Without a StateDir the server behaves exactly as before.
//
// Endpoints: POST /v1/compile, POST /v1/run, GET /v1/jobs/{id},
// GET /healthz, GET /readyz, GET /statsz. See handlers.go for the JSON
// shapes and errors.go for the status taxonomy.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"f90y/internal/driver"
	"f90y/internal/faults"
	"f90y/internal/rt"
)

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// Addr is the listen address for ListenAndServe ("" = 127.0.0.1:8090).
	Addr string
	// Workers is the job execution pool size (<1 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (<1 = 64).
	QueueDepth int
	// RequestTimeout is the per-job wall-clock deadline; a request may
	// ask for less via timeout_ms, never more (0 = 60s).
	RequestTimeout time.Duration
	// MaxCycles is the service-default watchdog budget for jobs with no
	// request or tenant budget (0 = 2e9 modeled cycles).
	MaxCycles float64
	// Quotas are the per-tenant bounds; the zero value applies the
	// defaults of DefaultQuotas.
	Quotas Quotas
	// RetainedJobs bounds the finished-job registry for /v1/jobs/{id}
	// (<1 = 256).
	RetainedJobs int
	// CacheEntries / CacheBytes bound the driver's artifact cache
	// (0 = 512 entries, 256 MiB).
	CacheEntries int
	CacheBytes   int64
	// StateDir enables the durability plane: the job journal, drain
	// spill files, and the persistent artifact cache live under it, and
	// New replays any prior epoch's journal found there. Empty (the
	// default) disables all of it.
	StateDir string
	// DiskCacheBytes bounds the persistent artifact cache under
	// StateDir; oldest entries are pruned at startup (0 = 1 GiB).
	DiskCacheBytes int64
	// IOFaults, when non-nil, mangles durable writes (journal appends,
	// spills, cache entries) for crash testing; see faults.ParseIOSpec.
	IOFaults *faults.IOInjector
	// Log receives one line per lifecycle event (nil = discard).
	Log io.Writer
}

// DefaultQuotas are the per-tenant bounds applied when Config.Quotas is
// the zero value: enough in-flight work to saturate a small pool,
// sources bounded at 1 MiB, budgets at the service default.
var DefaultQuotas = Quotas{
	MaxInFlight:    8,
	MaxSourceBytes: 1 << 20,
}

// withDefaults resolves the documented zero-value defaults.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8090"
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 2e9
	}
	if c.Quotas == (Quotas{}) {
		c.Quotas = DefaultQuotas
	}
	if c.RetainedJobs < 1 {
		c.RetainedJobs = 256
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.DiskCacheBytes == 0 {
		c.DiskCacheBytes = 1 << 30
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return c
}

// Server is one f90yd instance. Construct with New; Close or Drain it
// when done (New starts the worker pool immediately).
type Server struct {
	cfg     Config
	svc     *driver.Service
	mux     *http.ServeMux
	queue   chan *jobState
	jobs    *jobTable
	tenants *tenants

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	// admitMu orders jobWG.Add against Drain: draining is written under
	// it, and read under it wherever the read decides an admission.
	admitMu  sync.Mutex
	draining atomic.Bool

	// The durability plane (nil without Config.StateDir).
	dur *durable
	// now is the spill rule's clock (time.Now; tests step a fake one).
	now func() time.Time
	// suspend asks in-flight runs to stop at their next checkpoint
	// boundary (set by Drain before admission closes).
	suspend atomic.Bool
	// notReady flips readyz to 503 as the very first drain step, before
	// admission closes, so load balancers route away while in-flight
	// work is still checkpointing.
	notReady atomic.Bool

	jobWG       sync.WaitGroup // admitted jobs not yet finished
	workerWG    sync.WaitGroup
	stopWorkers chan struct{}
	stopOnce    sync.Once

	hsMu sync.Mutex
	hs   *http.Server
	ln   net.Listener

	stats serverStats
	start time.Time
}

// serverStats counts outcomes under one lock; every request increments
// exactly one status and (for errors) one code.
type serverStats struct {
	mu        sync.Mutex
	admitted  int64
	completed int64
	byStatus  map[int]int64
	byCode    map[Code]int64
	// ewmaRunNS is an exponentially-weighted run duration used for the
	// Retry-After estimate; 0 until the first completion.
	ewmaRunNS float64
}

func (st *serverStats) note(status int, code Code) {
	st.mu.Lock()
	st.byStatus[status]++
	if code != "" {
		st.byCode[code]++
	}
	st.mu.Unlock()
}

func (st *serverStats) noteRun(d time.Duration) {
	st.mu.Lock()
	st.completed++
	ns := float64(d.Nanoseconds())
	if st.ewmaRunNS == 0 {
		st.ewmaRunNS = ns
	} else {
		st.ewmaRunNS = 0.8*st.ewmaRunNS + 0.2*ns
	}
	st.mu.Unlock()
}

// New builds the server and starts its worker pool. The HTTP side is
// inert until the handler is served (Handler / ListenAndServe). With
// Config.StateDir set, New first recovers the prior epoch: the journal
// is replayed, finished results reload into the retention table, and
// unfinished jobs re-enter the queue (resuming from their drain spills
// when present) once the workers are up. Recovery errors — an unusable
// state directory or a journal in a foreign schema — fail construction
// rather than silently starting an amnesiac server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	svc := driver.New(cfg.Workers)
	svc.MaxCycles = cfg.MaxCycles
	svc.MaxCacheEntries = cfg.CacheEntries
	svc.MaxCacheBytes = cfg.CacheBytes

	s := &Server{
		cfg:         cfg,
		svc:         svc,
		queue:       make(chan *jobState, cfg.QueueDepth),
		jobs:        newJobTable(cfg.RetainedJobs),
		tenants:     newTenants(cfg.Quotas),
		stopWorkers: make(chan struct{}),
		now:         time.Now,
		start:       time.Now(),
	}
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	s.stats.byStatus = map[int]int64{}
	s.stats.byCode = map[Code]int64{}
	s.mux = s.routes()

	var resume []*jobState
	if cfg.StateDir != "" {
		dur, recs, err := openDurable(cfg.StateDir, cfg.IOFaults, func(format string, args ...any) {
			fmt.Fprintf(cfg.Log, format, args...)
		})
		if err != nil {
			return nil, err
		}
		s.dur = dur
		svc.CacheDir = filepath.Join(cfg.StateDir, "cache")
		svc.IOFaults = cfg.IOFaults
		if n := svc.PruneDiskCache(cfg.DiskCacheBytes); n > 0 {
			fmt.Fprintf(cfg.Log, "f90yd: pruned %d disk cache entries\n", n)
		}
		var carry []jrec
		carry, resume = s.replayJournal(recs)
		if err := dur.compactAndOpen(carry); err != nil {
			return nil, err
		}
	}

	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	if len(resume) > 0 {
		go s.enqueueRecovered(resume)
	}
	return s, nil
}

// Service exposes the underlying driver (tests and stats).
func (s *Server) Service() *driver.Service { return s.svc }

// Handler is the server's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe binds cfg.Addr and serves until Drain/Close. The
// bound address (useful with ":0") is reported through addr, if
// non-nil, before serving starts.
func (s *Server) ListenAndServe(addr func(net.Addr)) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.hsMu.Lock()
	s.ln = ln
	s.hs = &http.Server{Handler: s.mux}
	hs := s.hs
	s.hsMu.Unlock()
	if addr != nil {
		addr(ln.Addr())
	}
	fmt.Fprintf(s.cfg.Log, "f90yd: listening on %s (workers=%d queue=%d)\n",
		ln.Addr(), s.cfg.Workers, s.cfg.QueueDepth)
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// worker executes admitted jobs until the pool is stopped. Workers are
// only stopped after the queue has fully drained (Drain waits jobWG
// first), so no admitted job is abandoned.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case js := <-s.queue:
			s.runJob(js)
		case <-s.stopWorkers:
			return
		}
	}
}

// admit runs the admission pipeline for a registered job: drain gate,
// tenant quota, bounded queue. A nil error admits the job (the caller
// must not touch it again until done); otherwise the returned status/
// envelope reject it and the job is unregistered.
func (s *Server) admit(js *jobState) (int, apiError) {
	s.admitMu.Lock()
	if s.draining.Load() {
		s.admitMu.Unlock()
		s.jobs.drop(js)
		e := errorf(CodeDraining, "server is draining; not admitting new jobs")
		e.Error.RetryAfterMS = s.retryAfter().Milliseconds()
		return http.StatusServiceUnavailable, e
	}
	if !s.tenants.acquire(js.tenant) {
		s.admitMu.Unlock()
		s.jobs.drop(js)
		e := errorf(CodeTenantBusy, "tenant %q is at its in-flight quota (%d)", js.tenant, s.cfg.Quotas.MaxInFlight)
		e.Error.RetryAfterMS = s.retryAfter().Milliseconds()
		return http.StatusTooManyRequests, e
	}
	s.jobWG.Add(1)
	// Journal the admission before the queue send: a crash between the
	// two re-runs the job next epoch (at-least-once), whereas the other
	// order would lose it silently.
	if s.dur != nil {
		s.dur.append(jrec{T: "admitted", Job: js.id, Tenant: js.tenant, Kind: js.kind, Req: js.spec})
	}
	select {
	case s.queue <- js:
		s.admitMu.Unlock()
		s.stats.mu.Lock()
		s.stats.admitted++
		s.stats.mu.Unlock()
		return 0, apiError{}
	default:
		s.jobWG.Done()
		s.admitMu.Unlock()
		s.tenants.release(js.tenant)
		s.jobs.drop(js)
		e := errorf(CodeQueueFull, "admission queue is full (depth %d)", s.cfg.QueueDepth)
		e.Error.RetryAfterMS = s.retryAfter().Milliseconds()
		// Settle the journaled admission so recovery does not re-run a
		// job its caller saw rejected.
		if s.dur != nil {
			s.dur.append(jrec{T: "finished", Job: js.id, Tenant: js.tenant, Kind: js.kind,
				Status: http.StatusTooManyRequests, Code: CodeQueueFull, Error: e.Error.Message})
		}
		return http.StatusTooManyRequests, e
	}
}

// retryAfter estimates when a rejected caller should come back: the
// queue's expected service time on the current pool, floored at one
// second. It is a hint, not a promise.
func (s *Server) retryAfter() time.Duration {
	s.stats.mu.Lock()
	avg := time.Duration(s.stats.ewmaRunNS)
	s.stats.mu.Unlock()
	if avg <= 0 {
		avg = 250 * time.Millisecond
	}
	est := time.Duration(len(s.queue)+1) * avg / time.Duration(s.cfg.Workers)
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// runJob executes one admitted job end to end: deadline, driver run,
// optional oracle verify, classification, accounting, retention.
func (s *Server) runJob(js *jobState) {
	js.mu.Lock()
	js.status = JobRunning
	js.started = time.Now()
	js.mu.Unlock()
	s.prepareDurable(js)

	timeout := s.cfg.RequestTimeout
	if js.timeout > 0 && js.timeout < timeout {
		timeout = js.timeout
	}
	ctx, cancel := context.WithTimeout(js.ctx, timeout)

	status, code, errMsg, result, cached := s.execute(ctx, js)
	cancel()
	js.cancel(nil) // release the job's cause context

	js.mu.Lock()
	js.cached = cached
	started := js.started
	js.mu.Unlock()
	if code == CodeSuspended {
		// Drain parked this run at a checkpoint boundary: waiters get 503
		// suspended now, and — critically — no finished record is
		// journaled, so recovery resumes the job from its spill.
		js.finishAs(JobSuspended, status, code, errMsg, nil)
		s.dur.count(func(st *DurabilityStats) { st.Suspended++ })
		fmt.Fprintf(s.cfg.Log, "f90yd: job %s suspended at a checkpoint boundary\n", js.id)
	} else {
		js.finish(status, code, errMsg, result)
		if s.dur != nil {
			s.dur.append(jrec{T: "finished", Job: js.id, Tenant: js.tenant, Kind: js.kind,
				Status: status, Code: code, Error: errMsg, Cached: cached, Result: result})
			if js.spilled {
				s.dur.removeSpill(js.id)
			} else if js.kind == "run" {
				s.dur.count(func(st *DurabilityStats) { st.UnspilledRuns++ })
			}
		}
	}

	s.stats.noteRun(time.Since(started))
	s.stats.note(status, code)
	s.tenants.release(js.tenant)
	s.jobs.retire(js)
	s.jobWG.Done()
}

// Drain gracefully shuts the server down. The ordering is the
// durability contract: readyz flips to 503 first (load balancers stop
// routing while work is still live), then the suspend flag goes up so
// in-flight runs checkpoint and park at their next boundary, then
// admission closes. In-flight jobs that do not finish or suspend inside
// ctx's grace are killed through the context plumbing with cause
// ErrDraining — the checkpoint path is the graceful exit, the budget
// kill the backstop. Returns the final stats snapshot; safe to call
// once.
func (s *Server) Drain(ctx context.Context) Stats {
	s.notReady.Store(true)
	if s.dur != nil {
		s.suspend.Store(true)
	}
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	fmt.Fprintf(s.cfg.Log, "f90yd: draining (in-flight jobs finishing)\n")

	done := make(chan struct{})
	go func() { s.jobWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		fmt.Fprintf(s.cfg.Log, "f90yd: drain grace expired; killing in-flight jobs\n")
		s.baseCancel(ErrDraining)
		<-done
	}

	s.stopOnce.Do(func() { close(s.stopWorkers) })
	s.workerWG.Wait()
	s.dur.close() // nothing appends after the workers stop

	s.hsMu.Lock()
	hs := s.hs
	s.hsMu.Unlock()
	if hs != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		hs.Shutdown(sctx)
		cancel()
	}
	st := s.Stats()
	fmt.Fprintf(s.cfg.Log, "f90yd: drained (admitted=%d completed=%d)\n", st.Jobs.Admitted, st.Jobs.Completed)
	return st
}

// Close is Drain with no grace period: in-flight jobs are killed
// immediately.
func (s *Server) Close() Stats {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Drain(ctx)
}

// Stats is the /statsz snapshot (schema f90y-statsz/v1).
type Stats struct {
	Schema   string `json:"schema"`
	UptimeMS int64  `json:"uptime_ms"`
	Draining bool   `json:"draining"`
	Workers  int    `json:"workers"`
	Queue    struct {
		Len int `json:"len"`
		Cap int `json:"cap"`
	} `json:"queue"`
	InFlight struct {
		Queued  int `json:"queued"`
		Running int `json:"running"`
	} `json:"in_flight"`
	Jobs struct {
		Admitted  int64            `json:"admitted"`
		Completed int64            `json:"completed"`
		ByStatus  map[string]int64 `json:"by_status"`
		ByCode    map[string]int64 `json:"by_code"`
	} `json:"jobs"`
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Entries   int   `json:"entries"`
		Bytes     int64 `json:"bytes"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Tenants map[string]TenantStats `json:"tenants"`
	// StoreArena is the process-wide slab arena run stores draw from.
	StoreArena rt.ArenaStats `json:"store_arena"`
	// Durability is present only when the plane is enabled (-state-dir).
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// Stats assembles the snapshot.
func (s *Server) Stats() Stats {
	var st Stats
	st.Schema = "f90y-statsz/v1"
	st.UptimeMS = time.Since(s.start).Milliseconds()
	st.Draining = s.draining.Load()
	st.Workers = s.cfg.Workers
	st.Queue.Len = len(s.queue)
	st.Queue.Cap = s.cfg.QueueDepth
	st.InFlight.Queued, st.InFlight.Running = s.jobs.counts()

	s.stats.mu.Lock()
	st.Jobs.Admitted = s.stats.admitted
	st.Jobs.Completed = s.stats.completed
	st.Jobs.ByStatus = map[string]int64{}
	for code, n := range s.stats.byStatus {
		st.Jobs.ByStatus[fmt.Sprintf("%d", code)] = n
	}
	st.Jobs.ByCode = map[string]int64{}
	for c, n := range s.stats.byCode {
		st.Jobs.ByCode[string(c)] = n
	}
	s.stats.mu.Unlock()

	st.Cache.Hits, st.Cache.Misses = s.svc.CacheStats()
	st.Cache.Entries, st.Cache.Bytes, st.Cache.Evictions = s.svc.CacheUsage()
	st.Tenants = s.tenants.snapshot()
	st.StoreArena = rt.ReadArenaStats()
	st.Durability = s.dur.snapshot(s.svc.DiskStats())
	return st
}

// writeJSON writes v as indented JSON with status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
