package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"f90y/internal/faults"
	"f90y/internal/rt"
)

// lockedBuffer is a server log sink safe to read while workers write.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// reqBody marshals a request body for the raw-client posts these tests
// use (they need typed jobView decoding, not the map-based post helper).
func reqBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// durSrc has ~400 top-level host boundaries (one per DO iteration), so
// a drain always finds a checkpoint boundary to suspend at.
const durSrc = `      PROGRAM DUR
      REAL A(16), B(16)
      INTEGER I
      A = 1.5
      B = 0.5
      DO I = 1, 400
        A = A * B + A
      END DO
      PRINT *, SUM(A)
      END
`

// durableConfig is the shared small-server config for durability tests.
func durableConfig(dir string) Config {
	return Config{
		Workers:    2,
		QueueDepth: 8,
		StateDir:   dir,
		Quotas:     Quotas{MaxInFlight: 8, MaxSourceBytes: 1 << 20},
	}
}

// stepClock is a fake spill-rule clock: every reading is step later
// than the one before, so what the rule decides depends only on how
// often it looks, never on the machine.
func stepClock(step time.Duration) func() time.Time {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(step)
		return now
	}
}

// pollJob fetches a job view until want (a JobStatus) or the deadline.
func pollJob(t *testing.T, hs *httptest.Server, id string, want JobStatus) jobView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := hs.Client().Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.Status == want {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %q (want %q): %+v", id, v.Status, want, v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// postRun posts one /v1/run request for src and decodes the job view.
func postRun(t *testing.T, hs *httptest.Server, src string, async bool) (int, jobView) {
	t.Helper()
	resp, err := hs.Client().Post(hs.URL+"/v1/run", "application/json",
		reqBody(t, map[string]any{"file": "dur.f90", "source": src, "async": async}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, v
}

// runBaseline returns durSrc-style src's uninterrupted result from a
// throwaway durable server.
func runBaseline(t *testing.T, src string) jobView {
	t.Helper()
	_, hs := testServer(t, durableConfig(t.TempDir()))
	status, baseline := postRun(t, hs, src, false)
	if status != 200 || baseline.Result == nil {
		t.Fatalf("baseline run failed: %d %+v", status, baseline)
	}
	return baseline
}

// suspendOne runs one epoch on cfg's state dir whose only job, durSrc,
// is suspended at its first checkpoint boundary and drained away. It
// returns the job id; the spill is on disk when it returns.
func suspendOne(t *testing.T, cfg Config) string {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ahs := httptest.NewServer(a.Handler())
	defer ahs.Close()
	// Pre-arm the suspend flag: the run parks at its FIRST checkpoint
	// boundary, deterministically, with almost all work still to do.
	a.suspend.Store(true)

	status, admitted := postRun(t, ahs, durSrc, true)
	if status != http.StatusAccepted {
		t.Fatalf("async admission: %d %+v", status, admitted)
	}
	v := pollJob(t, ahs, admitted.JobID, JobSuspended)
	if v.HTTPStatus != http.StatusServiceUnavailable || v.Code != CodeSuspended {
		t.Fatalf("suspended view = (%d, %s), want (503, suspended)", v.HTTPStatus, v.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	st := a.Drain(ctx)
	cancel()
	if st.Durability == nil || st.Durability.Suspended != 1 || st.Durability.SpillWrites < 1 || st.Durability.SpillErrors != 0 {
		t.Fatalf("drain durability stats %+v, want 1 suspended, >=1 spill, 0 spill errors", st.Durability)
	}
	return admitted.JobID
}

// TestJournalTornTolerance: a WAL with a torn tail and a mid-file
// mangled line yields every intact record plus an accurate torn count.
func TestJournalTornTolerance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	recs := []jrec{
		{T: "admitted", Job: "j000001", Kind: "run", Req: &runRequest{Source: "x"}},
		{T: "started", Job: "j000001"},
		{T: "finished", Job: "j000001", Status: 200},
	}
	if err := writeCompact(path, recs); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// Mangle the "started" line (CRC now fails) and tear the tail.
	lines := []byte{}
	lines = append(lines, data...)
	mid := len(data) / 2
	lines[mid] ^= 0x20
	lines = append(lines, []byte("00000000 {\"t\":\"adm")...) // torn tail, no newline
	if err := os.WriteFile(path, lines, 0o644); err != nil {
		t.Fatal(err)
	}

	got, torn, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn < 1 {
		t.Errorf("torn = %d, want >= 1", torn)
	}
	for _, r := range got {
		if r.Job != "j000001" {
			t.Errorf("unexpected surviving record %+v", r)
		}
	}
	if len(got)+int(torn) < 4 {
		t.Errorf("records %d + torn %d should cover all 4 damaged-or-not lines", len(got), torn)
	}

	// A journal in a foreign schema is refused, not reinterpreted.
	bad, _ := encodeRec(jrec{T: "journal", Schema: "f90y-journal/v999"})
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readJournal(path); err == nil {
		t.Error("foreign-schema journal was accepted")
	}
}

// TestServerSuspendResumeBitIdentical is the tentpole acceptance at
// unit scale: a run suspended at a checkpoint boundary by drain and
// resumed by a fresh server on the same state dir produces exactly the
// result of a run that was never interrupted.
func TestServerSuspendResumeBitIdentical(t *testing.T) {
	baseline := runBaseline(t, durSrc)

	dir := t.TempDir()
	id := suspendOne(t, durableConfig(dir))

	// Epoch two: recovery resumes the spilled job to completion.
	b, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	bhs := httptest.NewServer(b.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		b.Drain(ctx)
		cancel()
		bhs.Close()
	}()
	done := pollJob(t, bhs, id, JobDone)
	if done.HTTPStatus != 200 || done.Result == nil {
		t.Fatalf("resumed job ended (%d, %s): %s", done.HTTPStatus, done.Code, done.Error)
	}
	if !reflect.DeepEqual(done.Result, baseline.Result) {
		t.Errorf("resumed result diverges from uninterrupted baseline:\n resumed  %+v\n baseline %+v",
			done.Result, baseline.Result)
	}
	if bst := b.Stats(); bst.Durability == nil || bst.Durability.Resumed != 1 {
		t.Errorf("epoch-two durability stats %+v, want resumed=1", bst.Durability)
	}
}

// TestServerRecoveryDamagedSpill: a spill that was torn, or corrupted
// after it committed, is reported as a casualty and the job re-run from
// scratch to the uninterrupted result — its bytes are never decoded
// into a store. Epoch one writes through an armed (zero-rate) fault
// injector, so the encode-in-memory spill path is the one on disk.
func TestServerRecoveryDamagedSpill(t *testing.T) {
	baseline := runBaseline(t, durSrc)
	for name, damage := range map[string]func([]byte) []byte{
		"torn":    func(b []byte) []byte { return b[:len(b)/2] },
		"short":   func(b []byte) []byte { return b[:len(b)-1] },
		"corrupt": func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir)
			cfg.IOFaults = faults.NewIO(&faults.IOPlan{Seed: 1})
			id := suspendOne(t, cfg)
			if cfg.IOFaults.Stats().Writes == 0 {
				t.Fatal("the armed injector saw no durable write")
			}
			spill := filepath.Join(dir, "spills", id+".ckpt")
			data, err := os.ReadFile(spill)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.ReadCheckpoint(spill); err != nil {
				t.Fatalf("the undamaged spill does not read back: %v", err)
			}
			if err := os.WriteFile(spill, damage(data), 0o644); err != nil {
				t.Fatal(err)
			}

			var log lockedBuffer
			cfg = durableConfig(dir)
			cfg.Log = &log
			s, hs := testServer(t, cfg)
			done := pollJob(t, hs, id, JobDone)
			if done.HTTPStatus != 200 || !reflect.DeepEqual(done.Result, baseline.Result) {
				t.Errorf("re-run job ended (%d, %s):\n got      %+v\n baseline %+v", done.HTTPStatus, done.Code, done.Result, baseline.Result)
			}
			d := s.Stats().Durability
			if d == nil || d.SpillCasualties != 1 || d.Requeued != 1 || d.Resumed != 0 {
				t.Errorf("durability stats %+v, want 1 casualty, 1 requeued, 0 resumed", d)
			}
			if want := "job " + id + " spill unusable"; !strings.Contains(log.String(), want) {
				t.Errorf("recovery log does not name the casualty (%q):\n%s", want, log.String())
			}
		})
	}
}

// TestServerRecoveryOtherMachineSpill: an intact spill whose machine
// tag is not the job's target is not damage and not resumable — its
// cycle buckets price another machine — so recovery re-runs the job
// from scratch, like any other readable-but-unusable spill, instead of
// letting the run fail on rt.ErrCkptMachine.
func TestServerRecoveryOtherMachineSpill(t *testing.T) {
	baseline := runBaseline(t, durSrc)
	dir := t.TempDir()
	id := suspendOne(t, durableConfig(dir))
	spill := filepath.Join(dir, "spills", id+".ckpt")
	ck, err := rt.ReadCheckpoint(spill)
	if err != nil {
		t.Fatal(err)
	}
	ck.Machine = "cm5"
	if _, err := ck.Write(spill, nil); err != nil {
		t.Fatal(err)
	}

	s, hs := testServer(t, durableConfig(dir))
	done := pollJob(t, hs, id, JobDone)
	if done.HTTPStatus != 200 || !reflect.DeepEqual(done.Result, baseline.Result) {
		t.Errorf("re-run job ended (%d, %s):\n got      %+v\n baseline %+v", done.HTTPStatus, done.Code, done.Result, baseline.Result)
	}
	d := s.Stats().Durability
	if d == nil || d.Requeued != 1 || d.Resumed != 0 || d.SpillCasualties != 0 {
		t.Errorf("durability stats %+v, want 1 requeued, 0 resumed, 0 casualties", d)
	}
}

// TestServerSpillFailureIsCountedAndLogged: when spills/ stops being
// writable under a running server, a run still finishes with the right
// result (durability degrades, the request does not fail), every failed
// spill moves spill_errors instead of spill_writes, and each is logged
// with the job id. The same program runs once before and once after the
// directory goes, so the second run's failures must number exactly the
// first run's writes — the rule reads a stepping clock, on which durSrc
// is a long run that spills every ninth boundary.
func TestServerSpillFailureIsCountedAndLogged(t *testing.T) {
	dir := t.TempDir()
	var log lockedBuffer
	cfg := durableConfig(dir)
	cfg.Log = &log
	s, hs := testServer(t, cfg)
	s.now = stepClock(spillFloor)
	status, healthy := postRun(t, hs, durSrc, false)
	if status != 200 || healthy.Result == nil {
		t.Fatalf("run on a healthy disk: %d %+v", status, healthy)
	}
	writes := s.Stats().Durability.SpillWrites
	if d := s.Stats().Durability; writes == 0 || d.SpillErrors != 0 {
		t.Fatalf("durability stats on a healthy disk %+v, want spills and no errors", d)
	}
	// chmod would not stop a root test run; taking the directory away does.
	if err := os.Rename(filepath.Join(dir, "spills"), filepath.Join(dir, "spills.gone")); err != nil {
		t.Fatal(err)
	}
	status, degraded := postRun(t, hs, durSrc, false)
	if status != 200 || !reflect.DeepEqual(degraded.Result, healthy.Result) {
		t.Errorf("run without spills/ ended %d:\n got     %+v\n healthy %+v", status, degraded.Result, healthy.Result)
	}
	d := s.Stats().Durability
	if d.SpillWrites != writes || d.SpillErrors != writes || d.JournalErrors != 0 {
		t.Errorf("durability stats %+v, want spill_writes still %d, spill_errors %d, no journal errors", d, writes, writes)
	}
	if got := int64(strings.Count(log.String(), "spill for job "+degraded.JobID+" failed")); got != d.SpillErrors {
		t.Errorf("%d failure lines logged for job %s, spill_errors = %d", got, degraded.JobID, d.SpillErrors)
	}
}

// TestServerRecoveryRequeuesNeverStarted: an admitted record with no
// started/finished trace (the crash hit before a worker picked it up)
// is re-run from scratch on the next epoch, and the id counter resumes
// above the journaled ids.
func TestServerRecoveryRequeuesNeverStarted(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	recs := []jrec{{
		T: "admitted", Job: "j000007", Tenant: "crashed", Kind: "run",
		Req: &runRequest{File: "dur.f90", Source: durSrc},
	}}
	if err := writeCompact(filepath.Join(dir, "journal.wal"), recs); err != nil {
		t.Fatal(err)
	}

	s, hs := testServer(t, durableConfig(dir))
	v := pollJob(t, hs, "j000007", JobDone)
	if v.HTTPStatus != 200 || v.Result == nil {
		t.Fatalf("recovered job ended (%d, %s): %s", v.HTTPStatus, v.Code, v.Error)
	}
	if v.Tenant != "crashed" {
		t.Errorf("recovered job tenant %q, want %q", v.Tenant, "crashed")
	}
	if st := s.Stats(); st.Durability == nil || st.Durability.Requeued != 1 {
		t.Errorf("durability stats %+v, want requeued=1", st.Durability)
	}
	// Fresh ids must not collide with recovered ones.
	njs := s.jobs.newJob("t", "run")
	if jobSeq(njs.id) <= 7 {
		t.Errorf("fresh id %s collides with the recovered journal range", njs.id)
	}
	s.jobs.drop(njs)
}

// parentJournal is a WAL written by the build before the executor's
// width stopped being a request field: its admitted record still
// carries "exec_workers":4 (bytes and CRCs as that build wrote them, for
// durSrc).
const parentJournal = `78e01d1c {"t":"journal","schema":"f90y-journal/v1"}
efd7baff {"t":"admitted","job":"j000003","tenant":"legacy","kind":"run","req":{"file":"dur.f90","source":"      PROGRAM DUR\n      REAL A(16), B(16)\n      INTEGER I\n      A = 1.5\n      B = 0.5\n      DO I = 1, 400\n        A = A * B + A\n      END DO\n      PRINT *, SUM(A)\n      END\n","config":{},"exec_workers":4}}
`

// TestServerRecoveryParentJournal: a journal from before exec_workers
// was retired replays intact — the field is ignored, not schema drift —
// and the job is re-admitted and finishes with the uninterrupted result.
func TestServerRecoveryParentJournal(t *testing.T) {
	baseline := runBaseline(t, durSrc)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), []byte(parentJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	s, hs := testServer(t, durableConfig(dir))
	v := pollJob(t, hs, "j000003", JobDone)
	if v.HTTPStatus != 200 || !reflect.DeepEqual(v.Result, baseline.Result) {
		t.Fatalf("recovered job ended (%d, %s) %s: result %+v, want %+v", v.HTTPStatus, v.Code, v.Error, v.Result, baseline.Result)
	}
	d := s.Stats().Durability
	if d.TornRecords != 0 || d.Unrecoverable != 0 || d.Requeued != 1 {
		t.Errorf("durability stats %+v, want torn=0 unrecoverable=0 requeued=1", d)
	}
}

// TestServerRecoveryServesFinished: finished results survive a restart
// — the journal's finished record reloads into the retention table and
// GET /v1/jobs/{id} answers identically next epoch.
func TestServerRecoveryServesFinished(t *testing.T) {
	dir := t.TempDir()
	a, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ahs := httptest.NewServer(a.Handler())
	resp, err := ahs.Client().Post(ahs.URL+"/v1/run", "application/json",
		reqBody(t, map[string]any{"file": "dur.f90", "source": durSrc}))
	if err != nil {
		t.Fatal(err)
	}
	var first jobView
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || first.Result == nil {
		t.Fatalf("first-epoch run failed: %d %+v", resp.StatusCode, first)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	a.Drain(ctx)
	cancel()
	ahs.Close()

	s, hs := testServer(t, durableConfig(dir))
	v := pollJob(t, hs, first.JobID, JobDone)
	if !reflect.DeepEqual(v.Result, first.Result) {
		t.Errorf("recovered result differs:\n epoch2 %+v\n epoch1 %+v", v.Result, first.Result)
	}
	if v.HTTPStatus != 200 {
		t.Errorf("recovered job status %d, want 200", v.HTTPStatus)
	}
	if st := s.Stats(); st.Durability == nil || st.Durability.RecoveredDone != 1 {
		t.Errorf("durability stats %+v, want recovered_done=1", st.Durability)
	}
}

// TestServerRecoveryTornJournalTail: garbage appended to the WAL (a
// torn final write) is counted and skipped; the server still starts and
// still serves everything whose records survived.
func TestServerRecoveryTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	recs := []jrec{{
		T: "admitted", Job: "j000003", Tenant: "anon", Kind: "run",
		Req: &runRequest{File: "dur.f90", Source: durSrc},
	}}
	if err := writeCompact(filepath.Join(dir, "journal.wal"), recs); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "journal.wal"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("deadbeef {\"t\":\"adm")) // CRC cannot match this torn body
	f.Close()

	s, hs := testServer(t, durableConfig(dir))
	v := pollJob(t, hs, "j000003", JobDone)
	if v.HTTPStatus != 200 {
		t.Fatalf("surviving job ended (%d, %s): %s", v.HTTPStatus, v.Code, v.Error)
	}
	if st := s.Stats(); st.Durability == nil || st.Durability.TornRecords < 1 {
		t.Errorf("durability stats %+v, want torn_records>=1", st.Durability)
	}
}

// TestServerStateless: without a StateDir the durability section is
// absent and no state files appear — the plane is strictly opt-in.
func TestServerStateless(t *testing.T) {
	s, hs := testServer(t, Config{Workers: 1, QueueDepth: 4,
		Quotas: Quotas{MaxInFlight: 4, MaxSourceBytes: 1 << 20}})
	resp, err := hs.Client().Post(hs.URL+"/v1/run", "application/json",
		reqBody(t, map[string]any{"file": "dur.f90", "source": durSrc}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stateless run: %d", resp.StatusCode)
	}
	if st := s.Stats(); st.Durability != nil {
		t.Errorf("stateless server reports durability stats: %+v", st.Durability)
	}
}

// parentJournalStarted is a WAL as the build before the "started" record
// was retired wrote it (bytes and CRCs from that build): two admitted
// runs of durSrc, each picked up by a worker, the first with a spill.
const parentJournalStarted = `78e01d1c {"t":"journal","schema":"f90y-journal/v1"}
9488cc40 {"t":"admitted","job":"j000001","tenant":"anon","kind":"run","req":{"file":"dur.f90","source":"      PROGRAM DUR\n      REAL A(16), B(16)\n      INTEGER I\n      A = 1.5\n      B = 0.5\n      DO I = 1, 400\n        A = A * B + A\n      END DO\n      PRINT *, SUM(A)\n      END\n","config":{},"async":true}}
9686530b {"t":"started","job":"j000001"}
b22459aa {"t":"ckpt","job":"j000001"}
b43956ab {"t":"admitted","job":"j000002","tenant":"anon","kind":"run","req":{"file":"dur.f90","source":"      PROGRAM DUR\n      REAL A(16), B(16)\n      INTEGER I\n      A = 1.5\n      B = 0.5\n      DO I = 1, 400\n        A = A * B + A\n      END DO\n      PRINT *, SUM(A)\n      END\n","config":{},"async":true}}
94c0ed52 {"t":"started","job":"j000002"}
`

// TestServerRecoveryParentJournalStarted: this build never writes a
// "started" record, and a WAL that holds them replays exactly as it did
// — the started-and-spilled job resumes, the started-only job is
// re-queued, nothing reads as torn or unrecoverable.
func TestServerRecoveryParentJournalStarted(t *testing.T) {
	baseline := runBaseline(t, durSrc)
	dir := t.TempDir()
	if id := suspendOne(t, durableConfig(dir)); id != "j000001" {
		t.Fatalf("the suspended job is %s; the literal journal names j000001", id)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), []byte(parentJournalStarted), 0o644); err != nil {
		t.Fatal(err)
	}
	s, hs := testServer(t, durableConfig(dir))
	for _, id := range []string{"j000001", "j000002"} {
		if v := pollJob(t, hs, id, JobDone); v.HTTPStatus != 200 || !reflect.DeepEqual(v.Result, baseline.Result) {
			t.Errorf("job %s ended (%d, %s) %s: result %+v, want %+v", id, v.HTTPStatus, v.Code, v.Error, v.Result, baseline.Result)
		}
	}
	d := s.Stats().Durability
	if d.Resumed != 1 || d.Requeued != 1 || d.TornRecords != 0 || d.Unrecoverable != 0 {
		t.Errorf("durability stats %+v, want resumed=1 requeued=1 torn=0 unrecoverable=0", d)
	}
	recs, _, err := readJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.T == "started" {
			t.Errorf("the compacted journal still carries %+v", r)
		}
	}
}

// spillRuleRun is one run job's checkpoint hook on a durable server
// whose clock the test owns: work advances it, and so does snap, by
// what the spill is to cost.
type spillRuleRun struct {
	s     *Server
	dir   string
	js    *jobState
	now   time.Time
	cost  time.Duration
	snaps []time.Time // the clock when each snapshot was taken
}

func newSpillRuleRun(t *testing.T, cost time.Duration) *spillRuleRun {
	t.Helper()
	r := &spillRuleRun{dir: t.TempDir(), now: time.Unix(1000, 0), cost: cost}
	r.s, _ = testServer(t, durableConfig(r.dir))
	r.s.now = func() time.Time { return r.now }
	r.js = r.s.jobs.newJob("t", "run")
	t.Cleanup(func() { r.s.jobs.drop(r.js) })
	r.s.prepareDurable(r.js)
	return r
}

func (r *spillRuleRun) snap() *rt.Checkpoint {
	r.snaps = append(r.snaps, r.now)
	r.now = r.now.Add(r.cost)
	return (&rt.Store{Scalars: map[string]float64{"x": 1}}).Checkpoint()
}

// boundary does work's worth of computing and offers the boundary.
func (r *spillRuleRun) boundary(work time.Duration) error {
	r.now = r.now.Add(work)
	return r.js.job.Ctl.Checkpoint(r.snap)
}

func (r *spillRuleRun) ckptRecords(t *testing.T) (n int) {
	t.Helper()
	recs, _, err := readJournal(filepath.Join(r.dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.T == "ckpt" {
			n++
		}
	}
	return n
}

// TestSpillRule drives the rule one boundary at a time on a clock the
// test owns: what a run pays the durability plane follows the work it
// has at risk, never how many boundaries it crossed.
func TestSpillRule(t *testing.T) {
	t.Run("short run never spills", func(t *testing.T) {
		r := newSpillRuleRun(t, 5*time.Millisecond)
		for at := time.Millisecond; at < spillFloor; at += time.Millisecond {
			if err := r.boundary(time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		files, err := os.ReadDir(filepath.Join(r.dir, "spills"))
		if err != nil {
			t.Fatal(err)
		}
		if len(r.snaps) != 0 || len(files) != 0 || r.ckptRecords(t) != 0 || r.js.spilled {
			t.Errorf("%d snapshots, %d files under spills/, %d ckpt records, spilled=%v; want none of them",
				len(r.snaps), len(files), r.ckptRecords(t), r.js.spilled)
		}
		if d := r.s.Stats().Durability; d.SpillWrites != 0 || d.SpillMS != 0 {
			t.Errorf("durability stats %+v, want no spill counted", d)
		}
	})

	t.Run("long run spills by work at risk", func(t *testing.T) {
		const work, cost = 30 * time.Millisecond, 25 * time.Millisecond
		r := newSpillRuleRun(t, cost)
		start := r.now
		for i := 0; i < 60; i++ {
			if err := r.boundary(work); err != nil {
				t.Fatal(err)
			}
		}
		if len(r.snaps) < 3 {
			t.Fatalf("%d spills over 60 boundaries of %v", len(r.snaps), work)
		}
		// Each spill is at the FIRST boundary with enough at risk: since
		// the start for the first, since the last spill finished — and no
		// closer than spillRatio of its cost — for the rest.
		since, need := start, spillFloor
		for i, at := range r.snaps {
			if at.Sub(since) < need || at.Add(-work).Sub(since) >= need {
				t.Errorf("spill %d at +%v, %v after the last one finished; want the first boundary past %v",
					i, at.Sub(start), at.Sub(since), need)
			}
			since, need = at.Add(cost), max(spillFloor, spillRatio*cost)
		}
		d := r.s.Stats().Durability
		if n := int64(len(r.snaps)); d.SpillWrites != n || d.SpillMS != float64(n)*durMS(cost) || r.ckptRecords(t) != 1 || !r.js.spilled {
			t.Errorf("durability stats %+v, %d ckpt records, spilled=%v; want %d spill_writes of %v each, one record, spilled",
				d, r.ckptRecords(t), r.js.spilled, n, cost)
		}
	})

	t.Run("suspend spills at the very next boundary", func(t *testing.T) {
		r := newSpillRuleRun(t, time.Millisecond)
		if err := r.boundary(time.Millisecond); err != nil || len(r.snaps) != 0 {
			t.Fatalf("boundary before the flag: err %v, %d snapshots", err, len(r.snaps))
		}
		r.s.suspend.Store(true)
		if err := r.boundary(time.Microsecond); !errors.Is(err, ErrSuspended) {
			t.Fatalf("boundary under the suspend flag returned %v, want ErrSuspended", err)
		}
		if _, err := rt.ReadCheckpoint(r.s.dur.spillPath(r.js.id)); err != nil || len(r.snaps) != 1 {
			t.Errorf("%d snapshots, spill reads back as %v; want one, intact", len(r.snaps), err)
		}
	})

	t.Run("a declined boundary allocates nothing", func(t *testing.T) {
		r := newSpillRuleRun(t, time.Millisecond)
		hook, snap := r.js.job.Ctl.Checkpoint, r.snap
		if n := testing.AllocsPerRun(100, func() { hook(snap) }); n != 0 || len(r.snaps) != 0 {
			t.Errorf("a declined boundary made %v allocations and %d snapshots, want 0 and 0", n, len(r.snaps))
		}
	})
}

// TestReadyzDoesNotWaitForAdmission: an admission holds admitMu across
// its journal append and fsync, and a readiness probe must answer
// without queueing behind that disk write.
func TestReadyzDoesNotWaitForAdmission(t *testing.T) {
	s, hs := testServer(t, Config{Workers: 1, QueueDepth: 2})
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	status := make(chan int, 1)
	go func() {
		resp, err := hs.Client().Get(hs.URL + "/readyz")
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	select {
	case got := <-status:
		if got != http.StatusOK {
			t.Errorf("/readyz = %d, want 200", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/readyz is waiting for the admission lock")
	}
}

// Two programs over the same extents, so their stores are the same
// slabs: one leaves NaNs and a non-zero pattern in every array, the
// other reads an array before it ever assigns it.
const (
	arenaPoisonSrc = `      PROGRAM POISON
      REAL A(32,32), B(32,32)
      A = 0.0
      A = A / A
      B = -7.25
      PRINT *, B(1,1)
      END
`
	arenaReaderSrc = `      PROGRAM READER
      REAL A(32,32), B(32,32)
      A = B + 1.0
      PRINT *, SUM(A), SUM(B)
      END
`
)

// TestServerStoreArenaIsolation: two workers answer 200 requests from
// each of two clients that alternate the poisoning program with the
// reading one. Stores are reused (the arena counts it) and the reader
// sees zeros every time — a reused slab is cleared, not trusted.
func TestServerStoreArenaIsolation(t *testing.T) {
	s, hs := testServer(t, Config{Workers: 2, QueueDepth: 8})
	run := func(src string) (int, any) {
		status, v, _ := post(t, hs.Client(), hs.URL+"/v1/run", "", map[string]any{"source": src})
		res, _ := v["result"].(map[string]any)
		return status, res["output"]
	}
	status, want := run(arenaReaderSrc)
	if status != 200 || !reflect.DeepEqual(want, []any{"1024 0"}) {
		t.Fatalf("the reader on a fresh store: %d %v, want 200 [1024 0]", status, want)
	}
	before := s.Stats().StoreArena
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if (i+c)%2 == 0 {
					if status, _ := run(arenaPoisonSrc); status != 200 {
						t.Errorf("client %d request %d: poison run: %d", c, i, status)
					}
				} else if status, got := run(arenaReaderSrc); status != 200 || !reflect.DeepEqual(got, want) {
					t.Errorf("client %d request %d: the reader printed %v (status %d), want %v", c, i, got, status, want)
				}
			}
		}(c)
	}
	wg.Wait()
	after := s.Stats().StoreArena
	if gets, reuses := after.Gets-before.Gets, after.Reuses-before.Reuses; gets != 800 || reuses < gets*9/10 {
		t.Errorf("400 runs of two arrays each: %d arena gets, %d reuses; want 800 and at least nine in ten reused", gets, reuses)
	}
}
