// Command f90yd is the hardened multi-tenant compile-and-run server:
// the internal/driver service layer behind an HTTP/JSON API with
// bounded admission, per-tenant quotas, LRU-bounded artifact caching,
// a typed error taxonomy, and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	f90yd [-addr 127.0.0.1:8090] [-addr-file path] [-workers N]
//	      [-queue-depth 64] [-request-timeout 60s] [-drain-timeout 15s]
//	      [-max-cycles 2e9] [-tenant-inflight 8]
//	      [-max-source-bytes 1048576] [-tenant-max-cycles 0]
//	      [-cache-entries 512] [-cache-bytes 268435456]
//	      [-retained-jobs 256] [-state-dir DIR] [-disk-cache-bytes 1073741824]
//	      [-io-faults spec]
//
// Endpoints:
//
//	POST /v1/compile     compile through the shared LRU artifact cache
//	POST /v1/run         compile+run a job (sync, or "async": true + polling)
//	GET  /v1/jobs/{id}   fetch a job's status/result
//	GET  /healthz        liveness (always 200 while the process is up)
//	GET  /readyz         readiness (503 once draining)
//	GET  /statsz         queue/cache/tenant/outcome counters (f90y-statsz/v1)
//
// See internal/server/errors.go (and README "Status and exit codes")
// for the status ↔ code taxonomy. On SIGTERM the server stops
// admitting, gives in-flight jobs -drain-timeout to finish, kills the
// stragglers through the context plumbing, writes the final stats
// snapshot to stderr, and exits 0.
//
// There is no executor-width flag or request field: each job shards its
// routine dispatches across its share of the host's cores, GOMAXPROCS /
// -workers (internal/driver), and results are bit-identical at every
// width.
//
// With -state-dir the server is crash-safe (job journal, run spills,
// persistent artifact cache; internal/server durable.go). There is no
// spill-cadence flag either: a run spills at a host boundary when the
// work a crash would lose is worth a spill — at least 100 ms at risk,
// and no more often than eight times what its last spill took — so a
// request that finishes sooner writes two journal records and no spill,
// and is restored after a crash by re-running it from its journaled
// source. Every run's store is drawn from one slab arena and handed back
// once the response is rendered; /statsz reports both (durability,
// store_arena).
//
// -addr-file writes the bound address (host:port) to a file once the
// listener is up — with -addr 127.0.0.1:0 this is how scripts discover
// the randomly assigned port (see scripts/serve_smoke.sh).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"f90y/internal/faults"
	"f90y/internal/server"
)

var (
	flagAddr         = flag.String("addr", "127.0.0.1:8090", "listen address (use :0 for a random port)")
	flagAddrFile     = flag.String("addr-file", "", "write the bound host:port to this file once listening")
	flagWorkers      = flag.Int("workers", 0, "job execution workers (0 = GOMAXPROCS)")
	flagQueueDepth   = flag.Int("queue-depth", 64, "bounded admission queue depth (overflow -> 429)")
	flagReqTimeout   = flag.Duration("request-timeout", 60*time.Second, "per-job wall-clock deadline (requests may ask for less)")
	flagDrainTimeout = flag.Duration("drain-timeout", 15*time.Second, "grace for in-flight jobs on SIGTERM before they are killed")
	flagMaxCycles    = flag.Float64("max-cycles", 2e9, "default modeled-cycle budget per job (rt.ErrBudget on overrun)")
	flagTenantJobs   = flag.Int("tenant-inflight", 8, "max queued+running jobs per tenant (0 = unlimited)")
	flagTenantCycles = flag.Float64("tenant-max-cycles", 0, "per-tenant cap on a job's requested cycle budget (0 = server default only)")
	flagMaxSource    = flag.Int("max-source-bytes", 1<<20, "max program source bytes per request (0 = unlimited)")
	flagCacheEntries = flag.Int("cache-entries", 512, "artifact cache LRU entry bound")
	flagCacheBytes   = flag.Int64("cache-bytes", 256<<20, "artifact cache LRU byte bound (estimated)")
	flagRetainedJobs = flag.Int("retained-jobs", 256, "finished jobs retained for GET /v1/jobs/{id}")
	flagStateDir     = flag.String("state-dir", "", "durability plane root (job journal, drain spills, persistent artifact cache); empty = disabled")
	flagDiskCache    = flag.Int64("disk-cache-bytes", 1<<30, "persistent artifact cache byte bound under -state-dir (pruned at startup)")
	flagIOFaults     = flag.String("io-faults", "", "deterministic durable-write fault spec, e.g. seed=1,torn=0.05,short=0.05 (crash testing)")
)

func main() {
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: f90yd [flags]")
		os.Exit(2)
	}

	ioPlan, err := faults.ParseIOSpec(*flagIOFaults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "f90yd:", err)
		os.Exit(2)
	}

	srv, err := server.New(server.Config{
		Addr:           *flagAddr,
		Workers:        *flagWorkers,
		QueueDepth:     *flagQueueDepth,
		RequestTimeout: *flagReqTimeout,
		MaxCycles:      *flagMaxCycles,
		Quotas: server.Quotas{
			MaxInFlight:    *flagTenantJobs,
			MaxCycles:      *flagTenantCycles,
			MaxSourceBytes: *flagMaxSource,
		},
		RetainedJobs:   *flagRetainedJobs,
		CacheEntries:   *flagCacheEntries,
		CacheBytes:     *flagCacheBytes,
		StateDir:       *flagStateDir,
		DiskCacheBytes: *flagDiskCache,
		IOFaults:       faults.NewIO(ioPlan),
		Log:            os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "f90yd:", err)
		os.Exit(1)
	}

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- srv.ListenAndServe(func(addr net.Addr) {
			if *flagAddrFile != "" {
				if err := os.WriteFile(*flagAddrFile, []byte(addr.String()), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "f90yd:", err)
				}
			}
		})
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(os.Stderr, "f90yd:", err)
			os.Exit(1)
		}
		return // listener closed without a signal (tests)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "f90yd: %v received; draining\n", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *flagDrainTimeout)
	stats := srv.Drain(ctx)
	cancel()

	// Flush the final snapshot so operators (and the smoke script) see
	// exactly what the instance did before it went away.
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	enc.Encode(stats)

	if err := <-serveErr; err != nil {
		fmt.Fprintln(os.Stderr, "f90yd:", err)
		os.Exit(1)
	}
}
