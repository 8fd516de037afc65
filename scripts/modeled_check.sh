#!/bin/sh
# modeled_check.sh — the "modeled fields unchanged" gate: regenerate the
# committed f90y-bench/v1 record (the paper-scale SWE run, engine and
# every flag at their defaults) and fail unless every line except the
# wall-clock `"micros":` lines of phases[] equals the committed file.
# Modeled cycles, attribution maps, GFLOPS, the baselines and the
# profile summary are the correctness signal; a refactor that claims
# "no modeled number changed" passes this or is wrong. (The record is
# written one field per line, so a line filter is an exact field filter.)
#
# After a change that is MEANT to move a modeled number, refresh the
# record with `make bench-record` and say so in the PR.
#
# Used by `make modeled-check` (tier-1).
set -eu

GO="${GO:-go}"
want=BENCH_baseline.json

workdir="$(mktemp -d)"
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT INT TERM

modeled() { grep -v '^ *"micros":' "$1"; }

$GO run ./cmd/swebench -json -n 512 -steps 2 -o "$workdir/got.json" > /dev/null
modeled "$want" > "$workdir/want.txt"
modeled "$workdir/got.json" > "$workdir/got.txt"
if ! cmp -s "$workdir/want.txt" "$workdir/got.txt"; then
	echo "modeled-check: FAIL: modeled fields differ from $want" >&2
	diff "$workdir/want.txt" "$workdir/got.txt" >&2 || true
	exit 1
fi
echo "modeled-check: OK"
