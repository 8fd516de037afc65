GO ?= go

.PHONY: check vet build test race modeled-check modeled-record serve-smoke crash-smoke crash-soak fuzz-smoke bench-check bench-pairs profile-smoke layout-smoke soak bench size clean

# check is the tier-1 gate (see ROADMAP.md). Ten stages, every test run
# race-enabled exactly once:
#   vet            go vet
#   build          go build
#   race           the whole suite under -race -short (-short skips only
#                  the paper-scale TestE1PaperScale; `make test` runs it)
#   modeled-check  the paper-scale f90y-bench/v2 record regenerates
#                  byte-identical to BENCH_baseline.json; a compile stays
#                  inside its allocation budget and is deterministic;
#                  `make size` stays inside its committed budget
#   fuzz-smoke     short fuzz of parser, pipeline, oracle, checkpoint reader
#   profile-smoke  the cycle profiler's three artifact formats
#   layout-smoke   the !HPF$ layout sweep, oracle-verified, deterministic
#                  and byte-identical to LAYOUT_baseline.json
#   serve-smoke    f90yd lifecycle: start, load, overload, SIGTERM drain
#   crash-smoke    SIGKILL mid-load, relaunch, bit-identical recovery
#   bench-check    vet + tests of the repository benchmark's own module
check: vet build race modeled-check fuzz-smoke profile-smoke layout-smoke serve-smoke crash-smoke bench-check

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

# The "ten alternating pairs" of EXPERIMENTS.md's B rows: the benchmark
# on a parent revision (a temporary git worktree) against this checkout,
# a fresh seed per pair, every run printed, then the table — median
# [q1, q3] per side, Δ median, change wins, parent IQR — per end-to-end
# metric. Informational, not a check stage; ~1 min per pair.
#   make bench-pairs PARENT=<rev> [W=swe[,router...]] [PAIRS=10]
bench-pairs:
	GO="$(GO)" PARENT="$(PARENT)" W="$(W)" PAIRS="$(PAIRS)" ./scripts/bench_pairs.sh

# Full suite, including the paper-scale §6 reproduction (~1 min).
test:
	$(GO) test ./...

# Race-enabled suite; -short skips the paper-scale run and nothing else,
# so this is also the concurrency gate (Test*Concurrent*, TestExec*),
# the fault-plane determinism and resume tests (internal/cm2), the short
# fault-invariance soak (internal/oracle) and the executor smoke
# (TestJITSmoke, TestJITSmokeOracle).
race:
	$(GO) test -race -short ./...

# Modeled fields are the correctness signal: regenerate the committed
# f90y-bench/v2 record (every flag at its default) and fail unless it is
# byte-identical to BENCH_baseline.json. The same stage holds the
# compiler's other exact counts (f90y_compile_test.go, a !race file the
# race stage never builds): allocations and bytes per compile against
# their committed budget, and one PEAC listing per source — and the
# size budget: `make size` may not report more lines or flags than the
# script's max_lines / max_flags.
modeled-check:
	GO="$(GO)" ./scripts/modeled_check.sh

# Refresh the goldens after a change that is MEANT to move a modeled
# number (and say so in the PR): SWE's record, and the layout sweep's
# that layout-smoke compares against.
modeled-record:
	$(GO) run ./cmd/swebench -json -n 512 -steps 2 -o BENCH_baseline.json
	$(GO) run ./cmd/swebench -layout-sweep -layout-n 65536 -layout-iters 2 -o LAYOUT_baseline.json > /dev/null

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
# kernel/layout pair oracle-verified, record determinism across runs
# and byte-equality with the committed LAYOUT_baseline.json (the only
# golden holding transpose, FFT and gather comm cycles), at least one kernel whose best layout is not all-BLOCK, a >= 1.5x
# worst/best cycle spread, and no row charged more than a router pass
# per transfer (see EXPERIMENTS.md E2').
layout-smoke:
	./scripts/layout_smoke.sh

# Full chaos soak: verify all seven kernels across interp/cm2/cm5,
# then sweep 25 seeds x 4 fault plans x 2 backends (1400 faulted runs)
# asserting bit-exact fault invariance. Reproducers for any violation
# land in soak-repros/.
soak:
	$(GO) run ./cmd/swebench -soak 25 -parallel -1

bench:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' ./...

# The two numbers every simplicity PR quotes (ROADMAP "Open items"):
# non-blank non-comment non-test Go outside bench/, and the cmd/ flag
# count TestEngineFlagRetired asserts. Not a check stage of its own:
# modeled-check holds both to the budget in scripts/modeled_check.sh.
size:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.*' \
		| xargs cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l | xargs echo 'non-test Go lines:'
	@grep -rhoE '\bflag\.((Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Text)(Var)?|Var|Func|BoolFunc)\(' \
		--include='*.go' --exclude='*_test.go' cmd | wc -l | xargs echo 'cmd/ flags:'

# clean removes generated benchmark outputs but keeps the committed
# BENCH_baseline.json (refresh it with modeled-record).
clean:
	rm -f BENCH_swe_*.json .profile-smoke.pb.gz .profile-smoke.folded .load-smoke.json LOAD_swe.json .crash-smoke.json CRASH_swe.json
