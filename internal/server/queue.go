package server

// The admission queue and job registry. Admission is a non-blocking
// send into a bounded channel: a full queue rejects with 429 +
// Retry-After instead of queueing unboundedly (load sheds at the edge,
// the paper-pipeline workers never see the overload). Every admitted
// job is tracked in a bounded registry so GET /v1/jobs/{id} can serve
// async results; finished jobs are retained FIFO up to a cap.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"f90y/internal/driver"
)

// JobStatus is a job's lifecycle phase as reported by /v1/jobs/{id}.
type JobStatus string

const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	// JobSuspended: drain checkpointed the run mid-flight; the id stays
	// valid and the job resumes from its spill after the server restarts.
	JobSuspended JobStatus = "suspended"
)

// jobState is one admitted job, from admission to retention. Mutable
// fields are guarded by mu; done closes when the terminal fields
// (httpStatus, code, result, errMsg, finished) are settled.
type jobState struct {
	id      string
	tenant  string
	kind    string // "compile" or "run"
	job     driver.Job
	timeout time.Duration // per-job deadline applied by the worker
	// spec is the validated request the job was built from; journaled on
	// admission so recovery can rebuild the job after a crash.
	spec *runRequest
	// spilled: the run has (or resumed from) a file under spills/; set
	// and read on the worker's goroutine only.
	spilled bool

	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{}

	mu         sync.Mutex
	status     JobStatus
	created    time.Time
	started    time.Time
	finished   time.Time
	cached     bool
	httpStatus int
	code       Code
	errMsg     string
	result     *runResult
}

// finish settles the terminal fields and closes done.
func (js *jobState) finish(status int, code Code, errMsg string, result *runResult) {
	js.finishAs(JobDone, status, code, errMsg, result)
}

// finishAs is finish with an explicit terminal state: JobDone for a
// settled outcome, JobSuspended for a run parked by drain (its waiters
// are released with 503 suspended; the job itself continues next epoch).
func (js *jobState) finishAs(st JobStatus, status int, code Code, errMsg string, result *runResult) {
	js.mu.Lock()
	js.status = st
	js.finished = time.Now()
	js.httpStatus = status
	js.code = code
	js.errMsg = errMsg
	js.result = result
	js.mu.Unlock()
	close(js.done)
}

// view renders the job for /v1/jobs/{id} and the sync response path.
func (js *jobState) view() jobView {
	js.mu.Lock()
	defer js.mu.Unlock()
	v := jobView{
		JobID:  js.id,
		Tenant: js.tenant,
		Kind:   js.kind,
		Status: js.status,
		Cached: js.cached,
	}
	if !js.started.IsZero() {
		v.QueueMS = durMS(js.started.Sub(js.created))
	}
	if js.status == JobDone || js.status == JobSuspended {
		v.HTTPStatus = js.httpStatus
		v.Code = js.code
		v.Error = js.errMsg
		v.RunMS = durMS(js.finished.Sub(js.started))
		v.Result = js.result
	}
	return v
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// jobView is the JSON shape of one job, shared by the sync run
// response and the async job fetch.
type jobView struct {
	JobID      string     `json:"job_id"`
	Tenant     string     `json:"tenant,omitempty"`
	Kind       string     `json:"kind,omitempty"`
	Status     JobStatus  `json:"status"`
	HTTPStatus int        `json:"http_status,omitempty"`
	Code       Code       `json:"code,omitempty"`
	Error      string     `json:"error,omitempty"`
	Cached     bool       `json:"cached,omitempty"`
	QueueMS    float64    `json:"queue_ms,omitempty"`
	RunMS      float64    `json:"run_ms,omitempty"`
	Result     *runResult `json:"result,omitempty"`
}

// jobTable is the bounded job registry: all live (queued/running) jobs
// plus the most recent max finished ones.
type jobTable struct {
	mu       sync.Mutex
	max      int
	seq      int64
	m        map[string]*jobState
	finished []string // finish order; evicted from the front past max
}

func newJobTable(max int) *jobTable {
	if max < 1 {
		max = 256
	}
	return &jobTable{max: max, m: map[string]*jobState{}}
}

// newJob mints an id and registers a queued job.
func (t *jobTable) newJob(tenant, kind string) *jobState {
	t.mu.Lock()
	t.seq++
	js := &jobState{
		id:      fmt.Sprintf("j%06d", t.seq),
		tenant:  tenant,
		kind:    kind,
		status:  JobQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	t.m[js.id] = js
	t.mu.Unlock()
	return js
}

// setSeq raises the id counter to at least n, so ids minted this epoch
// never collide with ids recovered from the journal.
func (t *jobTable) setSeq(n int64) {
	t.mu.Lock()
	if n > t.seq {
		t.seq = n
	}
	t.mu.Unlock()
}

// restoreFinished re-registers a finished job from its journal record
// so GET /v1/jobs/{id} keeps serving the same outcome across a restart.
// The done channel is born closed — the outcome is already settled.
func (t *jobTable) restoreFinished(id string, rec *jrec) *jobState {
	now := time.Now()
	js := &jobState{
		id:       id,
		tenant:   rec.Tenant,
		kind:     rec.Kind,
		status:   JobDone,
		created:  now,
		done:     make(chan struct{}),
		cached:   rec.Cached,
		finished: now,
	}
	js.httpStatus = rec.Status
	js.code = rec.Code
	js.errMsg = rec.Error
	js.result = rec.Result
	close(js.done)
	t.mu.Lock()
	t.m[id] = js
	t.finished = append(t.finished, id)
	for len(t.finished) > t.max {
		delete(t.m, t.finished[0])
		t.finished = t.finished[1:]
	}
	t.mu.Unlock()
	return js
}

// restoreQueued re-registers an admitted-but-unfinished job from its
// journal record, back in the queued state for re-admission.
func (t *jobTable) restoreQueued(id string, rec *jrec) *jobState {
	js := &jobState{
		id:      id,
		tenant:  rec.Tenant,
		kind:    rec.Kind,
		status:  JobQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	t.mu.Lock()
	t.m[id] = js
	t.mu.Unlock()
	return js
}

// get looks a job up by id.
func (t *jobTable) get(id string) *jobState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[id]
}

// retire moves a finished job into the bounded retention window,
// evicting the oldest finished job past the cap. Live jobs are never
// evicted — there are at most queue-depth + workers of them.
func (t *jobTable) retire(js *jobState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished = append(t.finished, js.id)
	for len(t.finished) > t.max {
		delete(t.m, t.finished[0])
		t.finished = t.finished[1:]
	}
}

// drop unregisters a job that was never admitted (queue/quota
// rejection happens after the id is minted).
func (t *jobTable) drop(js *jobState) {
	t.mu.Lock()
	delete(t.m, js.id)
	t.mu.Unlock()
}

// counts reports live jobs for /statsz.
func (t *jobTable) counts() (queued, running int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, js := range t.m {
		js.mu.Lock()
		switch js.status {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		}
		js.mu.Unlock()
	}
	return queued, running
}
