package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"f90y"
	"f90y/internal/opt"
	"f90y/internal/pe"
	"f90y/internal/workload"
)

// runawaySrc never terminates on its own: only a cycle budget or a
// context cancellation stops it. The deterministic budget-killer used
// throughout these tests.
const runawaySrc = "program loop\ninteger :: i\ni = 0\ndo while (i < 1)\n  i = i * 1\nend do\nend program loop\n"

// testServer builds a server + httptest front end and registers cleanup
// that drains it and checks for leaked goroutines.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	base := runtime.NumGoroutine()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.Drain(ctx)
		cancel()
		waitGoroutines(t, base)
	})
	return s, hs
}

// waitGoroutines asserts the goroutine count returns to (near) base:
// the queue workers, job contexts, and handler waiters must all be
// gone. The slack absorbs runtime/httptest background goroutines.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d now vs %d at start\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// post sends a JSON body and decodes the JSON response.
func post(t *testing.T, client *http.Client, url, tenant string, body any) (int, map[string]any, http.Header) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode, v, resp.Header
}

func get(t *testing.T, client *http.Client, url string) (int, map[string]any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode, v
}

func errCode(v map[string]any) string {
	e, _ := v["error"].(map[string]any)
	c, _ := e["code"].(string)
	return c
}

// TestServerRoundTrip drives the whole API surface once: compile, a
// cached sync run on both targets, an async run with polling, probes,
// and statsz accounting.
func TestServerRoundTrip(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 2, QueueDepth: 8})
	c := hs.Client()
	src := workload.SWE(16, 1)

	status, v, _ := post(t, c, hs.URL+"/v1/compile", "", map[string]any{"file": "swe.f90", "source": src})
	if status != 200 {
		t.Fatalf("compile: status %d, body %v", status, v)
	}
	res := v["result"].(map[string]any)
	if res["routines"].(float64) < 1 {
		t.Errorf("compile reported no routines: %v", res)
	}
	if !strings.HasPrefix(res["fingerprint"].(string), "fp1|") {
		t.Errorf("fingerprint %q lacks the fp1 version prefix", res["fingerprint"])
	}

	for _, target := range []string{"cm2", "cm5"} {
		status, v, _ = post(t, c, hs.URL+"/v1/run", "", map[string]any{"file": "swe.f90", "source": src, "target": target})
		if status != 200 {
			t.Fatalf("run %s: status %d, body %v", target, status, v)
		}
		if v["cached"] != true {
			t.Errorf("run %s after compile not served from cache", target)
		}
		r := v["result"].(map[string]any)
		if r["gflops"].(float64) <= 0 {
			t.Errorf("run %s: gflops %v", target, r["gflops"])
		}
		// The retired exec_workers field is accepted and ignored.
		status, v, _ = post(t, c, hs.URL+"/v1/run", "", map[string]any{"file": "swe.f90", "source": src, "target": target, "exec_workers": 4})
		if status != 200 || !reflect.DeepEqual(v["result"], any(r)) {
			t.Errorf("run %s with the retired exec_workers field: status %d, result %v, want %v", target, status, v["result"], r)
		}
	}

	// Async: admit, then poll to completion.
	status, v, _ = post(t, c, hs.URL+"/v1/run", "", map[string]any{"file": "swe.f90", "source": src, "async": true})
	if status != 202 {
		t.Fatalf("async run: status %d, body %v", status, v)
	}
	id := v["job_id"].(string)
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, v = get(t, c, hs.URL+"/v1/jobs/"+id)
		if status != 200 {
			t.Fatalf("job fetch: status %d, body %v", status, v)
		}
		if v["status"] == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async job %s did not finish: %v", id, v)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v["http_status"].(float64) != 200 {
		t.Errorf("async job outcome: %v", v)
	}

	if status, _ = get(t, c, hs.URL+"/healthz"); status != 200 {
		t.Errorf("healthz: %d", status)
	}
	if status, _ = get(t, c, hs.URL+"/readyz"); status != 200 {
		t.Errorf("readyz: %d", status)
	}
	status, v = get(t, c, hs.URL+"/statsz")
	if status != 200 || v["schema"] != "f90y-statsz/v1" {
		t.Errorf("statsz: %d %v", status, v)
	}
	if status, v = get(t, c, hs.URL+"/v1/jobs/nope"); status != 404 || errCode(v) != "not_found" {
		t.Errorf("unknown job: %d %s", status, errCode(v))
	}
	if status, v = get(t, c, hs.URL+"/v1/nope"); status != 404 || errCode(v) != "not_found" {
		t.Errorf("unknown route: %d %s", status, errCode(v))
	}
	// Both 404s are counted like every other error response.
	_, v = get(t, c, hs.URL+"/statsz")
	jobs := v["jobs"].(map[string]any)
	if n := jobs["by_status"].(map[string]any)["404"]; n != 2.0 {
		t.Errorf("statsz by_status[404] = %v after two 404s, want 2", n)
	}
	if n := jobs["by_code"].(map[string]any)["not_found"]; n != 2.0 {
		t.Errorf("statsz by_code[not_found] = %v after two 404s, want 2", n)
	}
}

// TestErrorTaxonomy drives each documented failure mode and asserts
// the exact (status, code) pair — and that none of them is a 500.
func TestErrorTaxonomy(t *testing.T) {
	_, hs := testServer(t, Config{
		Workers:    2,
		QueueDepth: 8,
		Quotas:     Quotas{MaxInFlight: 8, MaxSourceBytes: 4096},
	})
	c := hs.Client()

	cases := []struct {
		name   string
		body   any
		status int
		code   string
	}{
		{"compile error", map[string]any{"source": "program p\nthis is not fortran\nend\n"}, 422, "compile_error"},
		{"budget kill", map[string]any{"source": runawaySrc, "max_cycles": 1e6}, 422, "budget_exhausted"},
		{"deadline", map[string]any{"source": runawaySrc, "timeout_ms": 50}, 408, "deadline_exceeded"},
		{"unknown target", map[string]any{"source": "program p\nend\n", "target": "cm9"}, 400, "bad_request"},
		{"bad numeric mode", map[string]any{"source": "program p\nend\n", "numeric": "explode"}, 400, "bad_request"},
		{"bad faults spec", map[string]any{"source": "program p\nend\n", "faults": "bogus=1"}, 400, "bad_request"},
		{"empty source", map[string]any{"source": ""}, 400, "bad_request"},
		{"oversize source", map[string]any{"source": strings.Repeat("! padding\n", 600)}, 413, "source_too_large"},
	}
	for _, tc := range cases {
		status, v, _ := post(t, c, hs.URL+"/v1/run", "", tc.body)
		if status != tc.status || errCode(v) != tc.code {
			t.Errorf("%s: got (%d, %s), want (%d, %s) — body %v", tc.name, status, errCode(v), tc.status, tc.code, v)
		}
		if status >= 500 {
			t.Errorf("%s: expected failure mode produced a server error (%d)", tc.name, status)
		}
	}

	// Malformed JSON.
	resp, err := hs.Client().Post(hs.URL+"/v1/run", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}

	// A request cannot raise its budget past the tenant cap.
	_, hs2 := testServer(t, Config{
		Workers: 1, QueueDepth: 4,
		Quotas: Quotas{MaxInFlight: 4, MaxCycles: 1e6, MaxSourceBytes: 1 << 20},
	})
	status, v, _ := post(t, hs2.Client(), hs2.URL+"/v1/run", "", map[string]any{"source": runawaySrc, "max_cycles": 1e12})
	if status != 422 || errCode(v) != "budget_exhausted" {
		t.Errorf("tenant budget cap not enforced: (%d, %s) %v", status, errCode(v), v)
	}
}

// TestAdmissionOverflow fills the queue past its depth and asserts
// overflow is shed with 429 + Retry-After while everything admitted
// completes — and that the flood leaks no goroutines (the testServer
// cleanup re-checks after drain).
func TestAdmissionOverflow(t *testing.T) {
	s, hs := testServer(t, Config{
		Workers:    1,
		QueueDepth: 2,
		MaxCycles:  5e6, // budget-kill each runaway quickly and deterministically
		Quotas:     Quotas{MaxInFlight: 64, MaxSourceBytes: 1 << 20},
	})
	c := hs.Client()

	const flood = 24
	statuses := make([]int, flood)
	headers := make([]http.Header, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, _, h := post(t, c, hs.URL+"/v1/run", "", map[string]any{"source": runawaySrc})
			statuses[i] = st
			headers[i] = h
		}(i)
	}
	wg.Wait()

	var completed, shed int
	for i, st := range statuses {
		switch st {
		case 422: // budget-killed after running: it was admitted
			completed++
		case 429:
			shed++
			if headers[i].Get("Retry-After") == "" {
				t.Errorf("429 response %d lacks Retry-After", i)
			}
		default:
			t.Errorf("request %d: unexpected status %d (want 422 or 429)", i, st)
		}
	}
	if shed == 0 {
		t.Error("flooding a depth-2 queue on 1 worker shed nothing")
	}
	if completed == 0 {
		t.Error("no request was admitted and completed")
	}
	st := s.Stats()
	if st.Jobs.ByCode["queue_full"] == 0 {
		t.Errorf("statsz recorded no queue_full rejections: %v", st.Jobs.ByCode)
	}
}

// TestTenantQuotaIsolation: tenant A floods the server with
// budget-killer jobs; tenant B's healthy requests keep completing.
// A's excess is shed by ITS in-flight quota (429 tenant_busy), so B
// never sees queue_full, never waits behind more than A's quota, and
// is never starved.
func TestTenantQuotaIsolation(t *testing.T) {
	_, hs := testServer(t, Config{
		Workers:    4,
		QueueDepth: 64,
		MaxCycles:  5e6,
		Quotas:     Quotas{MaxInFlight: 2, MaxSourceBytes: 1 << 20},
	})
	c := hs.Client()
	stop := make(chan struct{})
	var floodWG sync.WaitGroup
	var aBusy, aOther int64
	var aMu sync.Mutex
	for i := 0; i < 4; i++ {
		floodWG.Add(1)
		go func() {
			defer floodWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st, _, _ := post(t, c, hs.URL+"/v1/run", "tenant-a", map[string]any{"source": runawaySrc})
				aMu.Lock()
				if st == 429 {
					aBusy++
				} else if st != 422 {
					aOther++
				}
				aMu.Unlock()
			}
		}()
	}

	src := workload.SWE(16, 1)
	for i := 0; i < 6; i++ {
		st, v, _ := post(t, c, hs.URL+"/v1/run", "tenant-b", map[string]any{"file": "swe.f90", "source": src})
		if st != 200 {
			t.Errorf("tenant B request %d: status %d (%s) — starved by tenant A's budget-killers: %v", i, st, errCode(v), v)
		}
	}
	close(stop)
	floodWG.Wait()

	aMu.Lock()
	defer aMu.Unlock()
	if aBusy == 0 {
		t.Error("tenant A's flood was never shed by its in-flight quota (no 429 tenant_busy)")
	}
	if aOther != 0 {
		t.Errorf("tenant A saw %d statuses outside the documented 422/429 pair", aOther)
	}
}

// TestServerDrain: with jobs in flight, Drain must stop admissions
// (503 draining; readyz flips), let the in-flight jobs finish or
// budget-kill them, and leave zero leaked goroutines (cleanup checks).
func TestServerDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := New(Config{
		Workers:    2,
		QueueDepth: 8,
		MaxCycles:  5e6, // in-flight runaways die by budget "or complete"
		Quotas:     Quotas{MaxInFlight: 16, MaxSourceBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := hs.Client()

	// Two in-flight budget-killers occupy both workers; one healthy job
	// waits in the queue. All three must reach a terminal state.
	results := make(chan int, 3)
	for i := 0; i < 2; i++ {
		go func() {
			st, _, _ := post(t, c, hs.URL+"/v1/run", "", map[string]any{"source": runawaySrc})
			results <- st
		}()
	}
	go func() {
		st, _, _ := post(t, c, hs.URL+"/v1/run", "", map[string]any{"file": "swe.f90", "source": workload.SWE(16, 1)})
		results <- st
	}()
	// Wait until the workers have actually picked work up and all three
	// requests are past admission (a late one would be shed as draining).
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.InFlight.Running >= 2 && st.Jobs.Admitted >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never started: %+v, admitted %d", st.InFlight, st.Jobs.Admitted)
		}
		time.Sleep(5 * time.Millisecond)
	}

	drained := make(chan Stats, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// New admissions are refused while draining; readyz flips to 503.
	time.Sleep(20 * time.Millisecond)
	st, v, _ := post(t, c, hs.URL+"/v1/run", "", map[string]any{"source": workload.SWE(16, 1)})
	if st != 503 || errCode(v) != "draining" {
		t.Errorf("admission during drain: (%d, %s), want (503, draining)", st, errCode(v))
	}
	if st, _ := get(t, c, hs.URL+"/readyz"); st != 503 {
		t.Errorf("readyz during drain: %d, want 503", st)
	}

	var final Stats
	select {
	case final = <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not return")
	}
	for i := 0; i < 3; i++ {
		select {
		case got := <-results:
			if got != 422 && got != 200 {
				t.Errorf("in-flight job %d ended %d; want 200 (completed) or 422 (budget-killed)", i, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("an in-flight request never got a response after drain")
		}
	}
	if !final.Draining {
		t.Error("final stats do not show draining")
	}
	if final.InFlight.Queued != 0 || final.InFlight.Running != 0 {
		t.Errorf("jobs still live after drain: %+v", final.InFlight)
	}
	hs.Close()
	waitGoroutines(t, base)
}

// TestServerDrainForceKill: a drain whose grace expires kills the
// in-flight run through the context plumbing with the documented 503
// draining outcome — never a 500, never a hang.
func TestServerDrainForceKill(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := New(Config{
		Workers:    1,
		QueueDepth: 2,
		// No budget to save us: MaxCycles huge, so only the drain kill
		// can stop the runaway.
		MaxCycles: 1e15,
		Quotas:    Quotas{MaxInFlight: 4, MaxSourceBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	result := make(chan int, 1)
	go func() {
		st, _, _ := post(t, hs.Client(), hs.URL+"/v1/run", "", map[string]any{"source": runawaySrc})
		result <- st
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight.Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("runaway never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	s.Drain(ctx)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("force drain took %v", elapsed)
	}
	select {
	case st := <-result:
		if st != 503 {
			t.Errorf("force-killed run returned %d, want 503 draining", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("force-killed request never got a response")
	}
	hs.Close()
	waitGoroutines(t, base)
}

// TestServerClientDisconnect: a sync client that goes away mid-run
// frees its worker promptly (the run is canceled, recorded 499) rather
// than stranding it until the deadline.
func TestServerClientDisconnect(t *testing.T) {
	s, hs := testServer(t, Config{
		Workers:    1,
		QueueDepth: 2,
		MaxCycles:  1e15,
		Quotas:     Quotas{MaxInFlight: 4, MaxSourceBytes: 1 << 20},
	})
	c := hs.Client()

	body, _ := json.Marshal(map[string]any{"source": runawaySrc})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", hs.URL+"/v1/run", bytes.NewReader(body))
	errc := make(chan error, 1)
	go func() { _, err := c.Do(req); errc <- err }()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight.Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("runaway never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request reported no error")
	}

	// The worker must come free: a healthy request completes.
	st, v, _ := post(t, c, hs.URL+"/v1/run", "", map[string]any{"file": "swe.f90", "source": workload.SWE(16, 1)})
	if st != 200 {
		t.Fatalf("healthy request after disconnect: %d %v", st, v)
	}
	stats := s.Stats()
	if stats.Jobs.ByCode["client_closed"] == 0 {
		t.Errorf("disconnect not recorded as client_closed: %v", stats.Jobs.ByCode)
	}
	if stats.Jobs.ByStatus["499"] == 0 {
		t.Errorf("disconnect not recorded as 499: %v", stats.Jobs.ByStatus)
	}
}

// TestServerVerifyJob: the oracle rides along on a run request.
func TestServerVerifyJob(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 1, QueueDepth: 2})
	status, v, _ := post(t, hs.Client(), hs.URL+"/v1/run", "", map[string]any{
		"file": "swe.f90", "source": workload.SWE(16, 1), "verify": true,
	})
	if status != 200 {
		t.Fatalf("verified run: %d %v", status, v)
	}
	res := v["result"].(map[string]any)
	ver, _ := res["verified"].(map[string]any)
	if ver == nil || ver["elems"].(float64) <= 0 {
		t.Errorf("no verification report in result: %v", res)
	}
}

// TestServerFaultedRun: a recoverable fault plan (retried transfers)
// still completes 200 through the server.
func TestServerFaultedRun(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 1, QueueDepth: 2})
	status, v, _ := post(t, hs.Client(), hs.URL+"/v1/run", "", map[string]any{
		"file": "swe.f90", "source": workload.SWE(16, 1), "faults": "seed=7,drop=0.01",
	})
	if status != 200 {
		t.Fatalf("faulted run: %d %v", status, v)
	}
}

// TestJobRetentionBounded: the finished-job registry evicts FIFO past
// its cap, and evicted ids 404 while recent ids survive.
func TestJobRetentionBounded(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 1, QueueDepth: 4, RetainedJobs: 3})
	c := hs.Client()
	var ids []string
	for i := 0; i < 6; i++ {
		status, v, _ := post(t, c, hs.URL+"/v1/compile", "", map[string]any{
			"file": "p.f90", "source": fmt.Sprintf("program p\nprint *, %d\nend program p\n", i),
		})
		if status != 200 {
			t.Fatalf("compile %d: %d %v", i, status, v)
		}
		ids = append(ids, v["job_id"].(string))
	}
	if st, _ := get(t, c, hs.URL+"/v1/jobs/"+ids[0]); st != 404 {
		t.Errorf("oldest job still retained past the cap: %d", st)
	}
	if st, _ := get(t, c, hs.URL+"/v1/jobs/"+ids[5]); st != 200 {
		t.Errorf("newest job not retained: %d", st)
	}
}

// TestConfigSpecWire pins the compile-config wire format: each opt × pe
// level pair builds the configuration it names, an empty field is its
// default, and an unknown level is a 400 over HTTP. It also pins the
// naming trap configSpec documents: the wire's opt "naive" runs no NIR
// pass at all, unlike f90yc -O=false, which keeps section padding (the
// CM Fortran model, f90y.CMFConfig).
func TestConfigSpecWire(t *testing.T) {
	for _, tc := range []struct {
		spec configSpec
		opt  opt.Options
		pe   pe.Options
	}{
		{configSpec{}, opt.Default, pe.Optimized},
		{configSpec{Opt: "default", PE: "optimized"}, opt.Default, pe.Optimized},
		{configSpec{Opt: "default", PE: "naive"}, opt.Default, pe.Naive},
		{configSpec{Opt: "naive", PE: "optimized"}, opt.Options{}, pe.Optimized},
		{configSpec{Opt: "naive", PE: "naive"}, opt.Options{}, pe.Naive},
	} {
		cfg, err := tc.spec.build()
		if err != nil {
			t.Errorf("%+v: %v", tc.spec, err)
			continue
		}
		if cfg.Opt != tc.opt || cfg.PE != tc.pe {
			t.Errorf("%+v built %+v / %+v, want %+v / %+v", tc.spec, cfg.Opt, cfg.PE, tc.opt, tc.pe)
		}
	}
	if naive, _ := (configSpec{Opt: "naive"}).build(); naive.Opt == f90y.CMFConfig().Opt {
		t.Error(`opt "naive" is the CM Fortran model's NIR passes; the wire format says it is none`)
	}

	_, hs := testServer(t, Config{Workers: 1, QueueDepth: 4})
	for _, spec := range []map[string]any{{"opt": "O3"}, {"pe": "fast"}} {
		body := map[string]any{"source": "program p\nend\n", "config": spec}
		if status, v, _ := post(t, hs.Client(), hs.URL+"/v1/compile", "", body); status != 400 || errCode(v) != "bad_request" {
			t.Errorf("config %v: got (%d, %s), want (400, bad_request)", spec, status, errCode(v))
		}
	}
}
