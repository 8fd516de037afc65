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
# simplification lowers it to what it reached.
max_lines=19725
max_flags=56

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
