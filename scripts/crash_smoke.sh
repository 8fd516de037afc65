#!/bin/sh
# crash_smoke.sh — end-to-end proof of the durability plane:
#
#   1. build f90yd and swebench,
#   2. run the swebench -restart harness, which launches f90yd on a
#      durable -state-dir, fires a deterministic job mix, SIGKILLs the
#      server mid-load KILLS times, relaunches it on the same state, and
#      fails unless every acknowledged job is recovered with a result
#      byte-identical to an uninterrupted baseline (no silent loss, no
#      divergence, no undocumented status),
#   3. repeat with deterministic torn/short durable-write injection
#      (the faults plane's IO injector) and require that any lost job is
#      a server-REPORTED torn-record casualty — damaged journal entries
#      must surface in /statsz, never vanish quietly,
#   4. assert the clean phase's final stats show a job RESUMED from its
#      spill (not merely re-queued from its journaled source: a run
#      spills only once it has enough work at risk, so a harness whose
#      kernels are too short to spill would never exercise resume), so
#      a harness that never interrupts anything cannot pass vacuously.
#
# Parameters (environment):
#   KILLS   SIGKILL/relaunch cycles per phase  (default 3; soak uses 20)
#   OUT     f90y-crash/v1 record path          (default .crash-smoke.json)
#
# Used by `make crash-smoke` (tier-1, small) and `make crash-soak`
# (KILLS=20, writes CRASH_soak.json for EXPERIMENTS.md L2).
set -eu

KILLS="${KILLS:-3}"
OUT="${OUT:-.crash-smoke.json}"
GO="${GO:-go}"

workdir="$(mktemp -d)"
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT INT TERM

echo "crash-smoke: building f90yd and swebench"
"$GO" build -o "$workdir/f90yd" ./cmd/f90yd
"$GO" build -o "$workdir/swebench" ./cmd/swebench

echo "crash-smoke: phase 1 — $KILLS clean SIGKILL cycles"
"$workdir/swebench" -restart "$KILLS" -server-bin "$workdir/f90yd" \
    -state-dir "$workdir/state-clean" -o "$OUT" | tee "$workdir/phase1.log"

# Vacuity check: the last relaunch must have resumed a run from its spill.
if ! grep -Eq '"resumed": [1-9]' "$OUT"; then
    echo "crash-smoke: FAIL — no job was resumed from a spill; the kills never interrupted a run that had spilled" >&2
    cat "$OUT" >&2
    exit 1
fi
if ! grep -q '"divergences": 0' "$OUT"; then
    echo "crash-smoke: FAIL — divergences recorded in $OUT" >&2
    exit 1
fi

echo "crash-smoke: phase 2 — $KILLS cycles with torn/short write injection"
"$workdir/swebench" -restart "$KILLS" -server-bin "$workdir/f90yd" \
    -state-dir "$workdir/state-faults" \
    -restart-io-faults "seed=3,torn=0.08,short=0.08" \
    -o "$workdir/crash_faults.json" | tee "$workdir/phase2.log"

if ! grep -q '"divergences": 0' "$workdir/crash_faults.json"; then
    echo "crash-smoke: FAIL — divergences under io-fault injection" >&2
    exit 1
fi

echo "crash-smoke: OK — $KILLS clean + $KILLS fault-injected cycles, zero divergences, record in $OUT"
