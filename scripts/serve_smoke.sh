#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the f90yd server lifecycle:
#
#   1. build f90yd and swebench,
#   2. start f90yd on a random port (-addr 127.0.0.1:0 -addr-file),
#   3. fire the swebench -serve-url traffic mix at it (healthy, verify,
#      fault, budget-killer, oversize, overflow burst) and fail on any
#      undocumented status,
#   4. SIGTERM the server and assert it drains: exits 0 and reports
#      draining in its final stats snapshot.
#
# Parameters (environment):
#   REQS   total load requests            (default 48)
#   LOADW  concurrent load clients        (default 8)
#   OUT    f90y-load/v2 record path       (default .load-smoke.json)
#
# Used by `make serve-smoke` (tier-1). The record counts statuses and
# error codes per traffic class; request latency is the repository
# benchmark's serve_hot workload (bench/).
set -eu

REQS="${REQS:-48}"
LOADW="${LOADW:-8}"
OUT="${OUT:-.load-smoke.json}"
GO="${GO:-go}"

workdir="$(mktemp -d)"
addrfile="$workdir/addr"
serverlog="$workdir/f90yd.log"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building f90yd and swebench"
"$GO" build -o "$workdir/f90yd" ./cmd/f90yd
"$GO" build -o "$workdir/swebench" ./cmd/swebench

# Small limits so the smoke run actually exercises admission control:
# a shallow queue for 429s, a modest default budget so runaways die in
# milliseconds, and the stock 1 MiB source bound for the 413 probe.
"$workdir/f90yd" -addr 127.0.0.1:0 -addr-file "$addrfile" \
    -workers 4 -queue-depth 8 -max-cycles 5e6 -tenant-inflight 4 \
    -request-timeout 30s -drain-timeout 10s 2> "$serverlog" &
pid=$!

# The load client polls /healthz itself; we only need the bound address
# to appear.
i=0
while [ ! -s "$addrfile" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: FAIL — server never wrote $addrfile" >&2
        cat "$serverlog" >&2
        exit 1
    fi
    sleep 0.1
done
addr="$(cat "$addrfile")"
echo "serve-smoke: f90yd up at $addr (pid $pid)"

"$workdir/swebench" -serve-url "http://$addr" \
    -load "$REQS" -load-workers "$LOADW" -o "$OUT"

echo "serve-smoke: load complete; sending SIGTERM"
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
if [ "$status" -ne 0 ]; then
    echo "serve-smoke: FAIL — f90yd exited $status after SIGTERM" >&2
    cat "$serverlog" >&2
    exit 1
fi
if ! grep -q '"draining": true' "$serverlog"; then
    echo "serve-smoke: FAIL — final stats snapshot does not show draining" >&2
    cat "$serverlog" >&2
    exit 1
fi
echo "serve-smoke: OK — drained cleanly, record in $OUT"
