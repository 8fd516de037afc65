GO ?= go

.PHONY: check vet build test race smoke modeled-check serve-smoke loadtest crash-smoke crash-soak fuzz-smoke bench-check profile-smoke layout-smoke jit-smoke determinism concurrency soak-short soak bench bench-exec bench-batch bench-record clean

# check is the tier-1 gate (see ROADMAP.md): static analysis, a full
# build, the race-enabled test suite, the race-enabled concurrency
# tests (driver cache, batch executor, cancellation), the modeled-fields
# gate (the committed paper-scale bench record regenerates with every
# modeled number unchanged), a machine-readable benchmark smoke run in
# batch mode, a short fuzz of the front end, the fault-plane determinism tests, a short fault-invariance
# soak through the differential oracle, an end-to-end smoke of the
# source-line cycle profiler's three artifact formats, the !HPF$
# distribution-plane layout sweep (oracle-verified, deterministic, and
# the layout choice must matter), the executor smoke (SWE through the
# three-way oracle under the reference evaluator and the translated
# form), the f90yd server lifecycle smoke (start,
# load, overload, SIGTERM drain), the durability-plane crash smoke
# (SIGKILL mid-load, relaunch, bit-identical recovery), and the vet +
# tests of the repository benchmark's own module.
check: vet build race concurrency modeled-check smoke fuzz-smoke determinism soak-short profile-smoke layout-smoke jit-smoke serve-smoke crash-smoke bench-check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The repository benchmark (bench/, see BENCHMARK.json) is its own
# module, so `go vet ./...` and `go test ./...` above never see it.
# Its tests start no process (< 1 s); vetting it also proves that
# bench/layers still compiles against the internal APIs it adapts
# (rt.Checkpoint.Encode, rt.WriteFileAtomic, ...).
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# Full suite, including the paper-scale §6 reproduction (~1 min).
test:
	$(GO) test ./...

# Race-enabled suite; -short skips the paper-scale run.
race:
	$(GO) test -race -short ./...

# Race-enabled concurrency gate: shared-artifact determinism, compile
# cache singleflight, LRU byte-bound eviction racing Peek/hot hits and
# in-flight pins (plus the error-entry flood), batch serial/parallel
# identity, cancellation, the
# sharded-executor determinism test (bit-exact stores, cycles, and
# fault/numeric tallies across -exec-workers values, with fault
# injection and the numeric record plane active), the executor
# differential tests (chunk boundaries, chained-Mem positions, error
# taxonomy, record-plane parity and failure-path merge, each under the
# reference evaluator and the translated form across worker counts), the
# dispatch-decision tests (fast-path refusals; goroutines
# first-translating one shared routine), and the pool telemetry test
# (workers recording into one shared collector while the modeled
# counters and per-line cycle attribution stay bit-identical to a serial
# run). Every executor test is named TestExec*; the count below fails
# the gate if a rename ever leaves that pattern matching nothing.
concurrency:
	$(GO) test -race -run 'Concurrent|^TestExec' ./...
	test "$$($(GO) test -list '^TestExec' ./internal/cm2/ | grep -c '^TestExec')" -ge 29

# Modeled fields are the correctness signal: regenerate the committed
# f90y-bench/v1 record (serial writer path, every flag at its default)
# and fail unless every field but phases[].micros is unchanged.
modeled-check:
	GO="$(GO)" ./scripts/modeled_check.sh

# Smoke-test the f90y-bench/v1 JSON writer with the parallel batch pool
# (modeled-check covers the serial path, with assertions).
smoke:
	$(GO) run ./cmd/swebench -json -parallel 4 -n 128 -steps 2 -o .bench-smoke.json
	rm -f .bench-smoke.json

# End-to-end server lifecycle smoke: build f90yd, start it on a random
# port, fire the swebench -serve-url traffic mix (healthy, verified,
# fault-injected, budget-killer, oversize), assert only documented
# statuses come back, SIGTERM, and assert a clean drain (exit 0 with a
# draining stats snapshot).
serve-smoke:
	REQS=48 LOADW=8 OUT=.load-smoke.json ./scripts/serve_smoke.sh
	rm -f .load-smoke.json

# Durability-plane crash smoke: the swebench -restart harness SIGKILLs
# a -state-dir f90yd mid-load and relaunches it, clean and under
# torn/short durable-write injection. Fails on any silent job loss,
# any result diverging from its uninterrupted baseline, or a run where
# the kills never actually interrupted anything (vacuity check).
crash-smoke:
	KILLS=3 OUT=.crash-smoke.json ./scripts/crash_smoke.sh
	rm -f .crash-smoke.json

# Crash soak: 20 SIGKILL/relaunch cycles per phase (clean + fault
# injected), recording the f90y-crash/v1 evidence quoted in
# EXPERIMENTS.md L2.
crash-soak:
	KILLS=20 OUT=CRASH_soak.json ./scripts/crash_smoke.sh

# Bigger load run against a fresh server, recording the f90y-load/v1
# baseline (healthy p50/p99, per-class status counts) quoted in
# EXPERIMENTS.md L1. 32 clients against 4 workers + a depth-8 queue
# drives the admission queue into overflow on purpose.
loadtest:
	REQS=256 LOADW=32 OUT=LOAD_baseline.json ./scripts/serve_smoke.sh

# Short fuzz of the parser, the whole compile pipeline, the
# differential oracle, and the checkpoint reader (~35s). The native
# fuzzer also replays the regression corpus in testdata/fuzz/.
# FuzzOracle gets a short budget: every successfully-compiling input
# runs the interpreter plus both machine backends, so its throughput is
# execution-bound, not parse-bound. FuzzReadCheckpoint feeds the
# f90y-ckpt/v2 decoder raw and validly-sealed byte strings.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzOracle$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 5s ./internal/rt

# End-to-end smoke of the source-line cycle profiler: one run emits the
# annotated listing, the pprof protobuf, and the folded stacks; the
# pprof file must parse with the stock toolchain and the folded file
# must be non-empty.
profile-smoke:
	$(GO) run ./cmd/f90yrun -profile -profile-pprof .profile-smoke.pb.gz \
		-profile-folded .profile-smoke.folded examples/swe.f90 > /dev/null
	$(GO) tool pprof -top .profile-smoke.pb.gz > /dev/null
	test -s .profile-smoke.folded
	rm -f .profile-smoke.pb.gz .profile-smoke.folded

# Distribution-plane smoke: the swebench layout sweep with every
# kernel/layout pair oracle-verified, record determinism across runs,
# at least one kernel whose best layout is not all-BLOCK, and a >= 2x
# worst/best cycle spread (see EXPERIMENTS.md E2').
layout-smoke:
	./scripts/layout_smoke.sh

# Fault-plane invariants: zero overhead with no plan attached,
# bit-identical replay of the same seed, and exact resume (from every
# boundary, from the parent commit's snapshots, never across machines).
# The suite lives in internal/cm2 and runs every test over both targets
# through the one run core (subtests .../cm2 and .../cm5).
determinism:
	$(GO) test -count=1 -run 'ZeroOverhead|Determinism|Resume' ./internal/cm2/

# Short fault-invariance soak: the oracle package's soak tests under
# the race detector (2 programs x 2 backends x 2 seeds x 4 plans).
soak-short:
	$(GO) test -race -run 'Soak|Verify' ./internal/oracle/

# Full chaos soak: verify all seven kernels across interp/cm2/cm5,
# then sweep 25 seeds x 4 fault plans x 2 backends (1400 faulted runs)
# asserting bit-exact fault invariance. Reproducers for any violation
# land in soak-repros/.
soak:
	$(GO) run ./cmd/swebench -soak 25 -parallel -1

bench:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' ./...

# Executor smoke: SWE through the three-way differential oracle under
# the reference evaluator and under the translated form, across worker
# counts. (The kernel-by-kernel bit-identity sweep, TestJITSmoke, runs
# with the suite in `race`.)
jit-smoke:
	$(GO) test -run 'JITSmokeOracle' -count=1 .

# Sharded-executor scaling: SWE wall-clock across -exec-workers 1/2/4/8
# (modeled metrics are identical across all four by construction; see
# EXPERIMENTS.md).
bench-exec:
	$(GO) test -bench 'SWE_ExecWorkers' -benchmem -run '^$$' .

# Time the full experiment suite serial vs parallel and write the
# f90y-batch/v1 comparison record.
bench-batch:
	$(GO) run ./cmd/swebench -bench-batch -o BENCH_batch.json

# Refresh the committed baseline record: the f90y-bench/v1 JSON for the
# paper-scale SWE run (with its profile summary), then the
# sharded-executor scaling benchmark for the wall-clock numbers quoted
# in EXPERIMENTS.md.
bench-record:
	$(GO) run ./cmd/swebench -json -n 512 -steps 2 -o BENCH_baseline.json
	$(GO) test -bench 'SWE_ExecWorkers' -benchmem -run '^$$' .

# clean removes generated benchmark outputs but keeps the committed
# BENCH_baseline.json (refresh it with bench-record).
clean:
	rm -f BENCH_swe_*.json BENCH_batch.json .bench-smoke.json .profile-smoke.pb.gz .profile-smoke.folded .load-smoke.json LOAD_swe.json .crash-smoke.json CRASH_swe.json
