package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fakeServe stands in for f90yd: every synchronous run answers status
// and body; of the async runs, burst-0's first four are admitted
// and its fifth is tenant_busy, every other is queue_full; an admitted
// job is done 200.
func fakeServe(t *testing.T, status int, body string) client {
	var mu sync.Mutex
	admitted := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == "GET" {
			fmt.Fprintf(w, `{"job_id": %q, "status": "done", "http_status": 200}`, strings.TrimPrefix(r.URL.Path, "/v1/jobs/"))
			return
		}
		var req struct{ Async bool }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("request body: %v", err)
		}
		if !req.Async {
			w.WriteHeader(status)
			io.WriteString(w, body)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case r.Header.Get("X-Tenant") == "burst-0" && admitted < 4:
			admitted++
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"job_id": "j%d", "status": "queued"}`, admitted)
		case r.Header.Get("X-Tenant") == "burst-0":
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error": {"code": "tenant_busy", "message": "quota"}}`)
		default:
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error": {"code": "queue_full", "message": "full"}}`)
		}
	}))
	t.Cleanup(srv.Close)
	return client{url: srv.URL}
}

// TestLoadVerdictPasses is the fakes' baseline: a server that does
// useful work and sheds both ways passes, so the failures below are
// each down to the one thing their fake changes.
func TestLoadVerdictPasses(t *testing.T) {
	rec, err := load(fakeServe(t, http.StatusOK, `{"status": "done", "http_status": 200}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.verdict(); err != nil {
		t.Fatal(err)
	}
	if o := rec.Outcomes; o["burst 200"] != 4 || o["burst 429 tenant_busy"] != 1 || o["burst 429 queue_full"] != 12 {
		t.Errorf("outcomes = %v, want burst 4×200, 1 tenant_busy, 12 queue_full", o)
	}
}

func TestLoadFailsOnUndocumentedStatus(t *testing.T) {
	_, err := load(fakeServe(t, http.StatusInternalServerError, `{"error": {"code": "internal", "message": "boom"}}`))
	if err == nil || !strings.Contains(err.Error(), "outside the documented taxonomy") {
		t.Fatalf("a 500 answered: load error = %v, want a taxonomy failure", err)
	}
}

func TestLoadFailsWithoutHealthy200(t *testing.T) {
	rec, err := load(fakeServe(t, http.StatusUnprocessableEntity, `{"error": {"code": "budget_exhausted", "message": "killed"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.verdict(); err == nil || !strings.Contains(err.Error(), "no healthy request completed 200") {
		t.Fatalf("no run succeeded: verdict = %v, want the healthy-200 failure", err)
	}
}

// vanished stands in for a relaunched f90yd that no longer knows any
// job and reports torn journal records in /statsz.
func vanished(t *testing.T, torn int) client {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/statsz" {
			fmt.Fprintf(w, `{"schema": "f90y-statsz/v1", "durability": {"torn_records": %d}}`, torn)
			return
		}
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, `{"error": {"code": "not_found", "message": "no such job"}}`)
	}))
	t.Cleanup(srv.Close)
	return client{url: srv.URL}
}

func TestVanishedJobWithoutDamageIsSilentLoss(t *testing.T) {
	ph := &crashPhase{IOFaults: crashIOFaults}
	err := ph.account(io.Discard, vanished(t, 0), "j000001", nil)
	if err == nil || !strings.Contains(err.Error(), "silent loss") {
		t.Fatalf("account = %v, want silent loss", err)
	}
	if ph.Casualties != 0 {
		t.Errorf("casualties = %d, want 0", ph.Casualties)
	}
}

func TestVanishedJobWithReportedDamageIsCasualty(t *testing.T) {
	ph := &crashPhase{IOFaults: crashIOFaults}
	if err := ph.account(io.Discard, vanished(t, 1), "j000001", nil); err != nil {
		t.Fatal(err)
	}
	if ph.Casualties != 1 {
		t.Errorf("casualties = %d, want 1", ph.Casualties)
	}
	// The clean phase injects no damage, so it forgives none.
	clean := &crashPhase{}
	if err := clean.account(io.Discard, vanished(t, 1), "j000001", nil); err == nil || !strings.Contains(err.Error(), "silent loss") {
		t.Fatalf("clean phase: account = %v, want silent loss", err)
	}
}
