package server

// The durability plane. With Config.StateDir set, the server keeps
// three durable artifacts under it:
//
//	journal.wal   the job WAL (journal.go, f90y-journal/v1)
//	spills/       one checkpoint per in-flight run job (rt.Checkpoint
//	              format, atomic temp+rename+fsync, CRC trailer)
//	cache/        the driver's persistent artifact tier (diskcache.go)
//
// Run jobs checkpoint through the EXISTING cm2.Control hook, which the
// run consults at every top-level host boundary; the rule that answers
// it (prepareDurable) spills the runtime snapshot when the work a crash
// would lose is worth a spill, so a request shorter than spillFloor
// never touches spills/. Drain flips the suspend flag, so the next
// boundary spills and returns ErrSuspended — the run stops at an exact
// boundary with a just-written snapshot, and the client gets 503 +
// code "suspended" with its job id still valid.
//
// Recovery (replayJournal) reconstructs obligations on startup:
//
//	finished record            -> job reloaded into the retention table;
//	                              GET /v1/jobs/{id} serves identical bytes
//	admitted, spill readable   -> re-admitted with Resume set: continues
//	                              from the boundary, bit-identically
//	admitted, no/bad spill     -> re-admitted from scratch (deterministic
//	                              jobs still produce identical results);
//	                              an unreadable spill is counted as a
//	                              casualty, never decoded
//	torn journal line          -> counted in stats (torn_records); a job
//	                              whose admitted record was lost cannot
//	                              be resumed, and the non-zero counter is
//	                              how the loss is reported
//
// The journal is compacted atomically before the new epoch appends.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"f90y/internal/driver"
	"f90y/internal/faults"
	"f90y/internal/rt"
)

// DurabilityStats is the /statsz durability section.
type DurabilityStats struct {
	StateDir        string  `json:"state_dir"`
	JournalRecords  int64   `json:"journal_records"` // appended this epoch
	JournalBytes    int64   `json:"journal_bytes"`
	JournalErrors   int64   `json:"journal_errors"` // append failures (degraded, not fatal)
	TornRecords     int64   `json:"torn_records"`   // damaged WAL lines found at recovery
	SpillWrites     int64   `json:"spill_writes"`
	SpillErrors     int64   `json:"spill_errors"`     // failed spill writes (degraded, not fatal)
	SpillMS         float64 `json:"spill_ms"`         // wall time inside spills: snapshot, encode, write
	UnspilledRuns   int64   `json:"unspilled_runs"`   // runs that ended without ever spilling
	SpillCasualties int64   `json:"spill_casualties"` // unreadable spills at recovery
	Suspended       int64   `json:"suspended"`        // jobs suspended by drain this epoch
	Resumed         int64   `json:"resumed"`          // jobs resumed from a spill at startup
	Requeued        int64   `json:"requeued"`         // jobs re-run from scratch at startup
	RecoveredDone   int64   `json:"recovered_done"`   // finished results reloaded at startup
	Unrecoverable   int64   `json:"unrecoverable"`    // admitted records that no longer build a job

	DiskCache driver.DiskCacheStats `json:"disk_cache"`
}

// durable owns the state directory: the WAL appender, the spill files,
// and the counters. Nil methods are safe so call sites stay branch-free
// when the plane is disabled.
type durable struct {
	dir     string
	journal *journal
	io      *faults.IOInjector
	logf    func(format string, args ...any)

	mu sync.Mutex
	st DurabilityStats
}

// openDurable creates the state-dir layout and reads (but does not yet
// compact) the prior epoch's journal.
func openDurable(dir string, inj *faults.IOInjector, logf func(string, ...any)) (*durable, []jrec, error) {
	for _, sub := range []string{dir, filepath.Join(dir, "spills"), filepath.Join(dir, "cache")} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, nil, fmt.Errorf("server: state dir: %w", err)
		}
	}
	recs, torn, err := readJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return nil, nil, err
	}
	d := &durable{dir: dir, io: inj, logf: logf}
	d.st.StateDir = dir
	d.st.TornRecords = torn
	if torn > 0 {
		logf("f90yd: journal: %d torn record(s) skipped during recovery\n", torn)
	}
	return d, recs, nil
}

// compactAndOpen atomically rewrites the WAL to carry and opens the
// epoch's appender.
func (d *durable) compactAndOpen(carry []jrec) error {
	path := filepath.Join(d.dir, "journal.wal")
	if err := writeCompact(path, carry); err != nil {
		return err
	}
	j, err := openJournal(path, d.io)
	if err != nil {
		return err
	}
	d.journal = j
	return nil
}

// append journals one record, best effort: a failed append degrades
// durability (counted, logged once per failure) but never fails the
// request — the in-memory server remains correct.
func (d *durable) append(rec jrec) {
	if d == nil {
		return
	}
	if err := d.journal.append(rec); err != nil {
		d.mu.Lock()
		d.st.JournalErrors++
		d.mu.Unlock()
		d.logf("f90yd: %v\n", err)
	}
}

// spillPath is the job's checkpoint file.
func (d *durable) spillPath(id string) string {
	return filepath.Join(d.dir, "spills", id+".ckpt")
}

// writeSpill durably writes one job checkpoint, through the fault
// injector when armed, and reports its size. A failure degrades
// durability (counted, logged with the job id) but never fails the run
// — same policy as a failed journal append.
func (d *durable) writeSpill(id string, ck *rt.Checkpoint) (int, error) {
	data, err := ck.Encode()
	if err == nil {
		data, _ = d.io.Mangle(data)
		err = rt.WriteFileAtomic(d.spillPath(id), data)
	}
	if err != nil {
		d.count(func(st *DurabilityStats) { st.SpillErrors++ })
		d.logf("f90yd: spill for job %s failed: %v\n", id, err)
		return 0, err
	}
	d.count(func(st *DurabilityStats) { st.SpillWrites++ })
	return len(data), nil
}

// readSpill loads the checkpoint of a job bound for the machine named
// target; integrity failures surface as rt.ErrCkptTruncated /
// rt.ErrCkptCorrupt and an intact spill of another machine as
// rt.ErrCkptMachine, exactly like the CLI path.
func (d *durable) readSpill(id, target string) (*rt.Checkpoint, error) {
	ck, err := rt.ReadCheckpoint(d.spillPath(id))
	if err != nil {
		return nil, err
	}
	if ck.Machine != target {
		return nil, fmt.Errorf("spill of a %q run, job targets %s: %w", ck.Machine, target, rt.ErrCkptMachine)
	}
	return ck, nil
}

// removeSpill deletes a finished job's checkpoint.
func (d *durable) removeSpill(id string) {
	if d == nil {
		return
	}
	os.Remove(d.spillPath(id))
}

// count bumps one counter under the lock.
func (d *durable) count(f func(*DurabilityStats)) {
	if d == nil {
		return
	}
	d.mu.Lock()
	f(&d.st)
	d.mu.Unlock()
}

// snapshot copies the counters, folding in the journal's epoch usage.
func (d *durable) snapshot(disk driver.DiskCacheStats) *DurabilityStats {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	st := d.st
	d.mu.Unlock()
	if d.journal != nil {
		st.JournalRecords, st.JournalBytes = d.journal.usage()
	}
	st.DiskCache = disk
	return &st
}

// close releases the WAL appender (after the workers have stopped).
func (d *durable) close() {
	if d == nil || d.journal == nil {
		return
	}
	d.journal.close()
}

// jobHist aggregates one job's journal records during replay.
type jobHist struct {
	admitted *jrec
	ckpt     bool
	finished *jrec
	order    int
}

// replayJournal reconstructs state from the prior epoch's records:
// finished jobs are reloaded into the retention table, unfinished
// admitted jobs are rebuilt for re-admission (with Resume set when
// their spill survives), and the carry list for compaction is returned.
// Called from New before the workers start; no locks are needed yet.
func (s *Server) replayJournal(recs []jrec) (carry []jrec, resume []*jobState) {
	hist := map[string]*jobHist{}
	var order []string
	var maxSeq int64
	note := func(id string) *jobHist {
		h := hist[id]
		if h == nil {
			h = &jobHist{order: len(order)}
			hist[id] = h
			order = append(order, id)
		}
		if n := jobSeq(id); n > maxSeq {
			maxSeq = n
		}
		return h
	}
	for i := range recs {
		rec := &recs[i]
		if rec.Job == "" {
			continue
		}
		switch rec.T {
		case "admitted":
			note(rec.Job).admitted = rec
		case "ckpt":
			note(rec.Job).ckpt = true
		case "finished":
			note(rec.Job).finished = rec
		}
	}
	s.jobs.setSeq(maxSeq)

	for _, id := range order {
		h := hist[id]
		switch {
		case h.finished != nil:
			// Terminal: reload the outcome so GET /v1/jobs/{id} serves the
			// same result this epoch, and carry the record forward.
			s.jobs.restoreFinished(id, h.finished)
			carry = append(carry, *h.finished)
			s.dur.count(func(st *DurabilityStats) { st.RecoveredDone++ })
			s.dur.removeSpill(id)
		case h.admitted != nil && h.admitted.Req != nil:
			js := s.jobs.restoreQueued(id, h.admitted)
			js.spec = h.admitted.Req
			if err := s.jobFromSpec(js); err != nil {
				// The record decoded (CRC passed) but no longer builds a
				// job — schema drift across versions. Reported, not silent.
				s.dur.count(func(st *DurabilityStats) { st.Unrecoverable++ })
				fmt.Fprintf(s.cfg.Log, "f90yd: recovery: job %s unrecoverable: %v\n", id, err)
				s.jobs.drop(js)
				s.dur.removeSpill(id)
				continue
			}
			carryRec := *h.admitted
			if h.ckpt {
				ck, err := s.dur.readSpill(id, js.job.Machine.Name)
				switch {
				case err == nil:
					js.job.Ctl.Resume = ck
					s.dur.count(func(st *DurabilityStats) { st.Resumed++ })
					carry = append(carry, carryRec, jrec{T: "ckpt", Job: id})
				default:
					// Torn or corrupt spill: a casualty to report, never a
					// snapshot to trust. The job re-runs from scratch — as
					// it does, unreported, for an intact spill this build
					// cannot resume (another schema, another machine).
					if errors.Is(err, rt.ErrCkptTruncated) || errors.Is(err, rt.ErrCkptCorrupt) || os.IsNotExist(err) {
						s.dur.count(func(st *DurabilityStats) { st.SpillCasualties++ })
						fmt.Fprintf(s.cfg.Log, "f90yd: recovery: job %s spill unusable (re-running): %v\n", id, err)
					}
					s.dur.removeSpill(id)
					s.dur.count(func(st *DurabilityStats) { st.Requeued++ })
					carry = append(carry, carryRec)
				}
			} else {
				s.dur.count(func(st *DurabilityStats) { st.Requeued++ })
				carry = append(carry, carryRec)
			}
			resume = append(resume, js)
		default:
			// A ckpt (or a parent's started) record whose admitted line was
			// torn: the job cannot be rebuilt. The torn counter already
			// reports the loss; make the orphan explicit too.
			s.dur.count(func(st *DurabilityStats) { st.Unrecoverable++ })
			s.dur.removeSpill(id)
		}
	}

	// Bound the carried finished records like the in-memory retention:
	// drop the oldest past RetainedJobs so the journal cannot grow one
	// compaction at a time forever.
	nFin := 0
	for _, r := range carry {
		if r.T == "finished" {
			nFin++
		}
	}
	if over := nFin - s.cfg.RetainedJobs; over > 0 {
		kept := carry[:0]
		for _, r := range carry {
			if r.T == "finished" && over > 0 {
				over--
				continue
			}
			kept = append(kept, r)
		}
		carry = kept
	}
	return carry, resume
}

// enqueueRecovered re-admits recovered jobs on a goroutine once the
// workers are running. Quota slots are adopted unconditionally — the
// jobs were already admitted in a prior epoch; bouncing them now would
// turn a restart into data loss. The queue send blocks past the
// admission bound for the same reason (the workers are live, so it
// drains). Drain stops the re-admission; un-enqueued jobs stay in the
// compacted journal for the next epoch.
func (s *Server) enqueueRecovered(resume []*jobState) {
	for _, js := range resume {
		s.admitMu.Lock()
		if s.draining.Load() {
			s.admitMu.Unlock()
			return
		}
		s.tenants.adopt(js.tenant)
		s.jobWG.Add(1)
		s.admitMu.Unlock()
		s.stats.mu.Lock()
		s.stats.admitted++
		s.stats.mu.Unlock()
		js.ctx, js.cancel = withJobContext(s.baseCtx)
		s.queue <- js
	}
	if len(resume) > 0 {
		fmt.Fprintf(s.cfg.Log, "f90yd: recovery: re-admitted %d job(s)\n", len(resume))
	}
}

// The spill rule's two constants. A run spills at a host boundary once
// the work a crash would lose — the time since it started, resumed, or
// last finished a spill — has reached spillFloor, and no sooner than
// spillRatio times what its last spill took. So the plane taxes a run by
// at most 1/(spillRatio+1) of its wall time, a crash re-does at most
// spillFloor plus one spill interval of compute per in-flight job, and
// a run shorter than spillFloor is protected by its journaled admission
// alone: recovery re-queues it from source.
const (
	spillFloor = 100 * time.Millisecond
	spillRatio = 8
)

// prepareDurable wires the checkpoint plane into one admitted run job:
// the hook below answers every top-level host boundary from the clock,
// before any copy is taken. Once the suspend flag is up the next
// boundary spills whatever the clock says and stops the run with
// ErrSuspended. Resume set by recovery stays.
func (s *Server) prepareDurable(js *jobState) {
	if s.dur == nil || js.kind != "run" {
		return
	}
	js.spilled = js.job.Ctl.Resume != nil
	journaled := false
	atRisk, lastSpill := s.now(), time.Duration(0)
	js.job.Ctl.Checkpoint = func(snap func() *rt.Checkpoint) error {
		suspend, start := s.suspend.Load(), s.now()
		if !suspend && start.Sub(atRisk) < max(spillFloor, spillRatio*lastSpill) {
			return nil
		}
		ck := snap()
		// A failed spill is writeSpill's to count and log; the run goes on.
		n, err := s.dur.writeSpill(js.id, ck)
		ck.Release()
		atRisk = s.now()
		lastSpill = atRisk.Sub(start)
		js.spilled = true
		s.dur.count(func(st *DurabilityStats) { st.SpillMS += durMS(lastSpill) })
		if err == nil {
			fmt.Fprintf(s.cfg.Log, "f90yd: job %s spilled %d bytes in %.1f ms\n", js.id, n, durMS(lastSpill))
			if !journaled {
				journaled = true
				s.dur.append(jrec{T: "ckpt", Job: js.id})
			}
		}
		if suspend {
			return ErrSuspended
		}
		return nil
	}
}
