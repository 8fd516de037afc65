#!/bin/sh
# modeled_check.sh — the "modeled fields unchanged" gate: regenerate the
# two committed f90y-bench/v1 records (the paper-scale SWE run under the
# interpreter and under -exec-jit) and fail unless every line except the
# wall-clock `"micros":` lines of phases[] equals the committed file.
# Modeled cycles, attribution maps, GFLOPS, the baselines and the
# profile summary are the correctness signal; a refactor that claims
# "no modeled number changed" passes this or is wrong. (The records are
# written one field per line, so a line filter is an exact field filter.)
#
# After a change that is MEANT to move a modeled number, refresh the
# records with `make bench-record` and say so in the PR.
#
# Used by `make modeled-check` (tier-1).
set -eu

GO="${GO:-go}"

workdir="$(mktemp -d)"
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT INT TERM

modeled() { grep -v '^ *"micros":' "$1"; }

check() { # check <committed record> <swebench flags...>
	want="$1"
	shift
	$GO run ./cmd/swebench -json "$@" -n 512 -steps 2 -o "$workdir/got.json" > /dev/null
	modeled "$want" > "$workdir/want.txt"
	modeled "$workdir/got.json" > "$workdir/got.txt"
	if ! cmp -s "$workdir/want.txt" "$workdir/got.txt"; then
		echo "modeled-check: FAIL: modeled fields differ from $want" >&2
		diff "$workdir/want.txt" "$workdir/got.txt" >&2 || true
		exit 1
	fi
}

check BENCH_baseline.json
check BENCH_jit.json -exec-jit
echo "modeled-check: OK"
