package main

// Server client mode: with -serve-url the bench suite doubles as a
// traffic generator against a running f90yd. A deterministic mix of job
// classes — healthy cached runs, oracle-verified runs, recoverable
// fault injections, budget-killer runaways on a noisy "hog" tenant,
// oversized sources, and admission-overflow bursts — is fired from
// -load-workers concurrent clients, and every response is checked
// against the documented error taxonomy (internal/server/errors.go):
// any 500, or any status outside the documented set, fails the run.
//
// A "f90y-load/v2" record is written to -o (default LOAD_swe.json):
//
//	{
//	  "schema": "f90y-load/v2",
//	  "url": ..., "requests": N, "workers": C,
//	  "classes": {"healthy": {"sent": n, "by_status": {"200": ...},
//	               "by_code": {"queue_full": ...}}, ...},
//	  "undocumented": 0,                        statuses outside the taxonomy
//	  "server_stats": {...}                     final /statsz snapshot
//	}
//
// The healthy class must see at least one 200 and the run must see at
// least one shed (429) when the request count is large enough to
// overflow the queue — otherwise the admission control was never
// exercised and the command fails.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"f90y/internal/workload"
)

// loadRunaway never terminates: the server's cycle budget (or a drain)
// must kill it. Mirrors the runaway used by the server tests.
const loadRunaway = "program loop\ninteger :: i\ni = 0\ndo while (i < 1)\n  i = i * 1\nend do\nend program loop\n"

// documentedStatuses is the full server taxonomy from
// internal/server/errors.go. Anything else — above all any 500 — is a
// bug and fails the load run.
var documentedStatuses = map[int]bool{
	200: true, 202: true, 400: true, 404: true, 408: true, 413: true,
	422: true, 429: true, 499: true, 503: true,
}

// loadClass is one kind of traffic in the mix.
type loadClass struct {
	name string
	body map[string]any
	// allowed is the stricter per-class expectation recorded in the
	// output; statuses outside it but inside the documented taxonomy are
	// counted as "unexpected" for the class without failing the run
	// (e.g. a healthy run shed as 429 under overload, or 503 mid-drain).
	allowed map[int]bool
}

type loadRecord struct {
	Schema       string                     `json:"schema"`
	URL          string                     `json:"url"`
	Requests     int                        `json:"requests"`
	Workers      int                        `json:"workers"`
	Classes      map[string]*loadClassStats `json:"classes"`
	Undocumented int                        `json:"undocumented"`
	ServerStats  json.RawMessage            `json:"server_stats,omitempty"`
}

type loadClassStats struct {
	Sent       int            `json:"sent"`
	ByStatus   map[string]int `json:"by_status"`
	ByCode     map[string]int `json:"by_code,omitempty"`
	Unexpected int            `json:"unexpected,omitempty"`
}

// serveWait is how long waitServe polls for a server to come up.
const serveWait = 10 * time.Second

// waitServe polls GET /healthz until the server answers 200 or
// serveWait runs out.
func waitServe(client *http.Client, url string) error {
	deadline := time.Now().Add(serveWait)
	for {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server at %s not healthy after %v: %w", url, serveWait, err)
			}
			return fmt.Errorf("server at %s not healthy after %v", url, serveWait)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// loadMix builds the deterministic request mix: request i always maps
// to the same class and body, independent of worker count, so two runs
// against the same server issue identical traffic. Benign traffic
// rotates across four tenants so both shedding layers get exercised:
// one noisy tenant saturates its own in-flight quota (tenant_busy)
// while the aggregate can still overflow the shared queue (queue_full).
func loadMix(i int) loadClass {
	healthySrc := workload.SWE(16, 1)
	tenant := fmt.Sprintf("bench-%d", i%4)
	switch {
	case i%16 == 7: // oracle-verified run
		return loadClass{
			name:    "verify",
			body:    map[string]any{"file": "swe.f90", "source": healthySrc, "verify": true, "tenant": tenant},
			allowed: map[int]bool{200: true},
		}
	case i%16 == 11: // recoverable fault plan: retried transfers, still 200
		return loadClass{
			name:    "fault",
			body:    map[string]any{"file": "swe.f90", "source": healthySrc, "faults": "seed=7,drop=0.01", "tenant": tenant},
			allowed: map[int]bool{200: true},
		}
	case i%16 == 3 || i%16 == 13: // budget-killer runaway on the hog tenant
		return loadClass{
			name:    "hog",
			body:    map[string]any{"source": loadRunaway, "max_cycles": 2e6, "tenant": "hog"},
			allowed: map[int]bool{422: true, 429: true},
		}
	case i == 5: // a single oversized source probes the byte bound
		return loadClass{
			name:    "oversize",
			body:    map[string]any{"source": "! x\n" + strings.Repeat("! padding line to exceed the source byte bound\n", 40000), "tenant": tenant},
			allowed: map[int]bool{413: true},
		}
	default:
		return loadClass{
			name:    "healthy",
			body:    map[string]any{"file": "swe.f90", "source": healthySrc, "tenant": tenant},
			allowed: map[int]bool{200: true, 429: true},
		}
	}
}

// runServeLoad fires the mix at the server and writes the record.
// Returns an error (→ exit 1) on any undocumented status or when the
// healthy class never completed a request.
func runServeLoad(w io.Writer, url string, requests, workers int, outPath string) error {
	url = strings.TrimRight(url, "/")
	if requests < 1 {
		requests = 64
	}
	if workers < 1 {
		workers = 8
	}
	client := &http.Client{Timeout: 5 * time.Minute}
	if err := waitServe(client, url); err != nil {
		return err
	}

	type outcome struct {
		class   string
		status  int
		code    string
		allowed bool
	}
	outcomes := make([]outcome, requests)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cl := loadMix(i)
			tenant, _ := cl.body["tenant"].(string)
			delete(cl.body, "tenant")
			b, err := json.Marshal(cl.body)
			if err != nil {
				outcomes[i] = outcome{class: cl.name, status: -1}
				return
			}
			req, err := http.NewRequest("POST", url+"/v1/run", bytes.NewReader(b))
			if err != nil {
				outcomes[i] = outcome{class: cl.name, status: -1}
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if tenant != "" {
				req.Header.Set("X-Tenant", tenant)
			}
			resp, err := client.Do(req)
			if err != nil {
				// Transport errors (refused mid-drain, timeouts) are
				// recorded as status 0 — documented, since the load client
				// may outlive the server's drain in the smoke script.
				outcomes[i] = outcome{class: cl.name, status: 0, allowed: true}
				return
			}
			var code string
			if resp.StatusCode >= 400 {
				var env struct {
					Error struct {
						Code string `json:"code"`
					} `json:"error"`
				}
				if json.NewDecoder(resp.Body).Decode(&env) == nil {
					code = env.Error.Code
				}
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			outcomes[i] = outcome{
				class:   cl.name,
				status:  resp.StatusCode,
				code:    code,
				allowed: cl.allowed[resp.StatusCode],
			}
		}(i)
	}
	wg.Wait()

	rec := loadRecord{
		Schema:   "f90y-load/v2",
		URL:      url,
		Requests: requests,
		Workers:  workers,
		Classes:  map[string]*loadClassStats{},
	}
	healthyOK := 0
	for _, o := range outcomes {
		cs := rec.Classes[o.class]
		if cs == nil {
			cs = &loadClassStats{ByStatus: map[string]int{}}
			rec.Classes[o.class] = cs
		}
		cs.Sent++
		cs.ByStatus[fmt.Sprintf("%d", o.status)]++
		if o.code != "" {
			if cs.ByCode == nil {
				cs.ByCode = map[string]int{}
			}
			cs.ByCode[o.code]++
		}
		if o.status > 0 && !documentedStatuses[o.status] {
			rec.Undocumented++
		}
		if !o.allowed && o.status > 0 && documentedStatuses[o.status] {
			cs.Unexpected++
		}
		if o.class == "healthy" && o.status == 200 {
			healthyOK++
		}
	}

	// Final server snapshot, best-effort (the server may already be
	// draining when the smoke script runs the overload phase).
	if resp, err := client.Get(url + "/statsz"); err == nil {
		if body, err := io.ReadAll(resp.Body); err == nil && resp.StatusCode == http.StatusOK {
			rec.ServerStats = json.RawMessage(body)
		}
		resp.Body.Close()
	}

	if outPath == "" {
		outPath = "LOAD_swe.json"
	}
	if err := writeRecord(outPath, rec); err != nil {
		return err
	}
	fmt.Fprintln(w, outPath)
	fmt.Fprintf(w, "load: %d reqs via %d workers\n", requests, workers)
	for _, name := range sortedClassNames(rec.Classes) {
		cs := rec.Classes[name]
		fmt.Fprintf(w, "load: class %-8s sent=%-4d by_status=%v", name, cs.Sent, cs.ByStatus)
		if len(cs.ByCode) > 0 {
			fmt.Fprintf(w, " by_code=%v", cs.ByCode)
		}
		fmt.Fprintln(w)
	}

	if rec.Undocumented > 0 {
		return fmt.Errorf("%d responses carried statuses outside the documented taxonomy (500s are bugs)", rec.Undocumented)
	}
	if healthyOK == 0 {
		return fmt.Errorf("no healthy request completed 200 — the server never did useful work under load")
	}
	return nil
}

func sortedClassNames(m map[string]*loadClassStats) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
