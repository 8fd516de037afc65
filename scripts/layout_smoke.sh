#!/bin/sh
# layout_smoke.sh — end-to-end smoke of the !HPF$ distribution plane:
#
#   1. run `swebench -layout-sweep -layout-verify` (every kernel/layout
#      pair passes the three-way differential oracle at a reduced size
#      before the sweep row is accepted; the sweep itself refuses a row
#      whose comm charge exceeds a router pass per transfer — staying on
#      the NEWS grid may never cost more than leaving it),
#   2. run the unverified sweep twice and assert the two
#      f90y-layout/v1 records are byte-identical (the sweep is
#      deterministic) and byte-equal to the committed
#      LAYOUT_baseline.json — the golden that holds the comm cycles of
#      transpose, FFT and gather, as BENCH_baseline.json holds SWE's
#      (`make modeled-record` refreshes both when a modeled number is
#      MEANT to move),
#   3. assert at least one kernel's best layout is not all-BLOCK, and
#   4. assert the worst/best cycle spread reaches 1.5x on some kernel
#      (the distribution choice must matter in the model; the single
#      cost path supports 1.87x, the gather — the 139x the FFT once
#      showed was the default layout's own pricing branch, not layout).
#
# Parameters (environment):
#   N      sweep problem size (elements)  (default 65536)
#   ITERS  kernel iterations              (default 2)
#
# Used by `make layout-smoke` (tier-1).
set -eu

N="${N:-65536}"
ITERS="${ITERS:-2}"
GO="${GO:-go}"

workdir="$(mktemp -d)"
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT INT TERM

echo "layout-smoke: verified sweep (n=$N iters=$ITERS)"
$GO run ./cmd/swebench -layout-sweep -layout-verify \
	-layout-n "$N" -layout-iters "$ITERS" -o "$workdir/a.json" > "$workdir/a.txt"

echo "layout-smoke: determinism re-runs"
$GO run ./cmd/swebench -layout-sweep \
	-layout-n "$N" -layout-iters "$ITERS" -o "$workdir/b.json" > /dev/null
$GO run ./cmd/swebench -layout-sweep \
	-layout-n "$N" -layout-iters "$ITERS" -o "$workdir/c.json" > /dev/null
if ! cmp -s "$workdir/b.json" "$workdir/c.json"; then
	echo "layout-smoke: FAIL: sweep records differ between runs" >&2
	diff "$workdir/b.json" "$workdir/c.json" >&2 || true
	exit 1
fi
if [ "$N" = 65536 ] && [ "$ITERS" = 2 ] && ! cmp -s LAYOUT_baseline.json "$workdir/b.json"; then
	echo "layout-smoke: FAIL: sweep record differs from LAYOUT_baseline.json" >&2
	diff LAYOUT_baseline.json "$workdir/b.json" >&2 || true
	echo "layout-smoke: if the change is meant to move a modeled number: make modeled-record" >&2
	exit 1
fi

if ! grep -q '"any_non_block_best": true' "$workdir/b.json"; then
	echo "layout-smoke: FAIL: every kernel's best layout is all-BLOCK" >&2
	cat "$workdir/a.txt" >&2
	exit 1
fi

spread_ok="$(awk -F': ' '/"max_spread"/ { print ($2 + 0 >= 1.5) ? "yes" : "no"; exit }' "$workdir/b.json")"
if [ "$spread_ok" != "yes" ]; then
	echo "layout-smoke: FAIL: max worst/best cycle spread below 1.5x" >&2
	cat "$workdir/a.txt" >&2
	exit 1
fi

echo "layout-smoke: OK"
