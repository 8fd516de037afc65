#!/bin/sh
# no_fma_check.sh — fail if an arm64 build of the module contracts a
# multiply and an add into one fused instruction in the module's own
# code. Go lets a compiler fuse x*y + z unless an explicit float64(...)
# conversion pins the product. amd64 at the default GOAMD64=v1 never
# fuses and arm64 always may, so a missing conversion makes fmaddv (and
# the modeled cycle sums) round once on arm64 and twice on amd64. The check disassembles every
# package's arm64 test binary — which links the package's own code and
# its tests — and the example programs, and lists each f90y/ function
# holding an FMADDD, FMSUBD, FNMADDD or FNMSUBD.
#
# Used by `make vet` (tier-1).
set -eu

GO="${GO:-go}"
workdir="$(mktemp -d)"
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT INT TERM

GOARCH=arm64 $GO test -c -o "$workdir/" ./... > /dev/null
GOARCH=arm64 $GO build -o "$workdir/" ./examples/... ./cmd/...
found="$(for bin in "$workdir"/*; do
	$GO tool objdump -s '^f90y/' "$bin" | awk '/^TEXT /{sym=$2} /F(N)?M(ADD|SUB)D/ && sym ~ /^f90y\// {print sym, $1}'
done | sort -u)"
if [ -n "$found" ]; then
	echo "no-fma-check: FAIL: fused multiply-add in the arm64 build; pin each product with float64(...):" >&2
	echo "$found" >&2
	exit 1
fi
echo "no-fma-check: OK"
