#!/bin/sh
# modeled_check.sh — the "modeled fields unchanged" gate: regenerate the
# committed f90y-bench/v2 record (the paper-scale SWE run, every flag at
# its default) and fail unless it is byte-identical to the committed
# file. The record holds modeled fields only — cycles, attribution maps,
# GFLOPS, the baselines, the profile summary — and they are the
# correctness signal; a refactor that claims "no modeled number changed"
# passes this or is wrong.
#
# After a change that is MEANT to move a modeled number, refresh the
# record with `make modeled-record` and say so in the PR.
#
# The same gate holds the repository's other exact counts: the compile
# path's (f90y_compile_test.go) and the size budget below.
#
# Used by `make modeled-check` (tier-1).
set -eu

GO="${GO:-go}"
want=BENCH_baseline.json

# The size budget: what `make size` may report at most. A change that
# grows either number says so by raising it here, in its own diff; a
# simplification lowers it to what it reached. The last raise, by 80
# (19,763 → 19,843), bought the PEAC vector bodies: the Go declarations
# of the 36 AVX bodies in internal/peac/vec_amd64.s (one line each — the
# assembly itself is not Go and not counted), the CPU probe, the one
# peac.Vector helper that picks a body or the Go loop per call, and the
# two tables that route the op table's arithmetic rows and cm2's fused
# pairs through it. The last cut, by 135 lines and 5 flags (19,843 →
# 19,708; 56 → 51), merged swebench's load mix and crash harness into
# one server harness (cmd/swebench/serve.go), made internal/cmf a
# configuration for f90y.CompileCtx instead of a third copy of the
# pipeline, and sent every swebench record through one writer. The
# next, by 10 lines and 9 flags (19,708 → 19,698; 51 → 42), turned the
# flags that only ever took one value, or repeated another, into
# constants, a GOMAXPROCS derivation and positional arguments, and
# folded internal/cmf into f90y.CMFConfig. The last raise, by 41
# (19,698 → 19,739), made the store arena's misses of 2 MB and up
# huge-page aligned and, on Linux, advised onto transparent huge pages:
# newSlab and slabBytes in internal/rt/arena.go, the one-function
# platform seam (arena_linux.go, arena_other.go), the comm staging
# buffer drawn the same way, and the rt/arena/huge and
# store_arena.huge counters. The last cut, by 77 (19,739 → 19,662),
# gave checkpoints one path: the run core builds and restores snapshots
# itself, the host VM resumes from the *rt.Checkpoint, and one Write
# puts every checkpoint on disk (Config.Machine and Layout.Owner went too).
# The next, by 39 (19,662 → 19,623), made the oracle exact: each machine
# is compared with the interpreter bit for bit, once, and the ULP
# tolerance, its option and the machine-pair comparisons went.
# The last raise, by 58 (19,623 → 19,681), split the comm layer's
# payload copies over the run's exec workers: rt.Grain (the executor's
# chunk, moved here), the block plan and its fan-out (cut, each), the
# gather's two passes (gatherScan, gatherFetch) built in place, the
# transpose's row blocks, the Comm.Workers, Parallel and StageBytes
# fields and their two counters; shiftInto's two copy loops became one.
# The next cut, by 83 (19,681 → 19,598), is not a net simplification of
# what remained: 14 exported functions only tests called (with shape's
# Env) moved into test files or went (−148), while the production code
# that stayed grew by 65 — PEAC chunks and comm payload blocks moved
# onto one pool, rt.Cut/Blocks.Each (+36), and constant sections and
# declaration sizes are checked at compile time (+29).
max_lines=19598
max_flags=42

workdir="$(mktemp -d)"
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT INT TERM

$GO run ./cmd/swebench -json -n 512 -steps 2 -o "$workdir/got.json" > /dev/null
if ! cmp -s "$want" "$workdir/got.json"; then
	echo "modeled-check: FAIL: regenerated record differs from $want" >&2
	diff "$want" "$workdir/got.json" >&2 || true
	echo "modeled-check: if the change is meant to move a modeled number: make modeled-record" >&2
	exit 1
fi
# The compiler's own deterministic counts, against committed numbers: what
# a compile allocates, and one PEAC listing per source. Their file is
# built without -race only, so the race stage never runs them.
if ! out="$($GO test -count=1 -run '^(TestCompileAllocBudget|TestLexerAllocatesOneSlice|TestCompileDeterministic)$' . 2>&1)"; then
	echo "modeled-check: FAIL: the compile path's counts moved" >&2
	echo "$out" >&2
	exit 1
fi
size="$(${MAKE:-make} -s size)"
lines="$(echo "$size" | sed -n 's/^non-test Go lines: //p')"
flags="$(echo "$size" | sed -n 's/^cmd\/ flags: //p')"
if ! { [ "$lines" -le "$max_lines" ] && [ "$flags" -le "$max_flags" ]; }; then
	echo "modeled-check: FAIL: make size reports ${lines:-?} non-test lines and ${flags:-?} cmd/ flags; the budget is $max_lines and $max_flags" >&2
	echo "modeled-check: a change that means to grow either raises the budget in scripts/modeled_check.sh" >&2
	exit 1
fi
echo "modeled-check: OK"
