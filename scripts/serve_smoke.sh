#!/bin/sh
# serve_smoke.sh — build f90yd and swebench, then run swebench's server
# gate on that f90yd (cmd/swebench/serve.go), passing the arguments on
# to swebench:
#
#   ./scripts/serve_smoke.sh -o .load-smoke.json               # make serve-smoke
#   ./scripts/serve_smoke.sh -restart 3 -o .crash-smoke.json   # make crash-smoke
#
# The gate launches, drives and drains f90yd itself; a failure prints
# the tail of f90yd's stderr.
set -eu

GO="${GO:-go}"
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT INT TERM

"$GO" build -o "$bin/" ./cmd/f90yd ./cmd/swebench
"$bin/swebench" -serve "$bin/f90yd" "$@"
