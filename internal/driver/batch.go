package driver

import (
	"context"
	"runtime"
	"sync"

	"f90y"
	"f90y/internal/cm2"
	"f90y/internal/obs"
	"f90y/internal/obs/profile"
	"f90y/internal/rt"
)

// Job is one compile+run request. Config.Obs is the job's private
// telemetry recorder: it receives the exec span and cycle attribution
// for this run, plus compile spans when this job is the one that
// populates the cache entry (a cache hit records no compile phases).
type Job struct {
	// Name labels the job in results and telemetry.
	Name string
	// File and Source are the program to compile.
	File   string
	Source string
	// Config selects the optimization levels, the distribution
	// overrides and the per-job recorder.
	Config f90y.Config
	// Machine is the machine the job runs on — a row of Targets, a
	// resized copy of one (Target), or any other value; nil means the
	// table's default. It is the only machine Run consults.
	Machine *cm2.Target
	// Ctl is the job's execution control plane (fault injection,
	// checkpoints, resume, budget). Run fills the service's budget and
	// the executor width into whichever of the two the job left zero.
	Ctl cm2.Control
}

// RunResult is one job's outcome: Result on success, Err otherwise.
type RunResult struct {
	Job      Job
	Artifact *Artifact
	// Cached reports that the artifact was resident and finished when
	// the job looked it up (see Service.CompileCached).
	Cached bool
	Result *cm2.Result
	Err    error
}

// Profile builds the job's source-line cycle profile from the result's
// attribution — the PE attribution overlaid with the communication
// network's (router and NEWS cycles appear under the rt.CommRoutine
// pseudo-routine with their own "grid"/"router"/"reduce" classes) —
// with the job's own source attached for the annotated view. Nil when
// the job failed or its target recorded no attribution.
func (r *RunResult) Profile() *profile.Profile {
	res := r.Result
	if res == nil || (len(res.PELineCycles) == 0 && len(res.CommLineCycles) == 0) {
		return nil
	}
	lines := rt.MergeLineMaps(res.PELineCycles, res.CommLineCycles)
	return profile.New(lines, map[string]string{r.Job.File: r.Job.Source})
}

// execWidth is the one place an executor width is decided: each of the
// service's concurrent runs shards its routine dispatches across its
// share of the process's cores. A program never says how many
// processors execute a statement (§3.3), so neither does a user.
func execWidth(procs, workers int) int {
	return max(1, procs/workers)
}

// Run compiles (through the cache) and executes one job under ctx.
func (s *Service) Run(ctx context.Context, job Job) RunResult {
	res := RunResult{Job: job}
	art, cached, err := s.CompileCached(ctx, job.File, job.Source, job.Config)
	res.Cached = cached
	if err != nil {
		res.Err = err
		return res
	}
	res.Artifact = art
	rec := job.Config.Obs
	span := obs.Start(rec, "exec")
	defer span.End()
	ctl := job.Ctl
	if ctl.MaxCycles == 0 {
		ctl.MaxCycles = s.MaxCycles
	}
	if ctl.ExecWorkers == 0 {
		ctl.ExecWorkers = execWidth(runtime.GOMAXPROCS(0), s.workers)
	}
	m := job.Machine
	if m == nil {
		m = Targets[0]
	}
	res.Result, res.Err = m.Run(ctx, art.Program, nil, rec, &ctl)
	return res
}

// RunBatch executes the jobs on a worker pool bounded at the service's
// worker count, returning results indexed exactly like jobs. Each job's
// cycle totals, GFLOPS, and output are independent of the worker count
// and of which goroutine ran it; only wall-clock changes. Shared
// (source, config) pairs compile once through the cache — concurrent
// duplicates wait for the in-flight compile rather than re-running it.
func (s *Service) RunBatch(ctx context.Context, jobs []Job) []RunResult {
	out := make([]RunResult, len(jobs))
	n := s.workers
	if n > len(jobs) {
		n = len(jobs)
	}
	if n <= 1 {
		for i := range jobs {
			out[i] = s.Run(ctx, jobs[i])
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = s.Run(ctx, jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
