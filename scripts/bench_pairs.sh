#!/bin/sh
# bench_pairs.sh — the "ten alternating pairs" method of EXPERIMENTS.md
# B3–B6 as one command: run the repository benchmark on a parent
# revision and on this checkout, pair by pair, and print every run plus
# the B-row table for each end-to-end metric.
#
#   PARENT=<rev> [W=swe] [PAIRS=10] [SEED=100] ./scripts/bench_pairs.sh
#
# W may name several workloads, comma-separated (W=serve_durable,serve_hot):
# each gets its own PAIRS pairs and its own table, one after the other,
# against the same parent checkout.
#
# The parent is checked out into a git worktree under a temporary
# directory (removed on exit); PARENT_DIR=<dir> uses an existing
# checkout of it instead and leaves it alone. Each side is built and run
# from its own checkout by
#   go run -C bench f90y/bench --workload W --seed S --trace 0
# with the side that runs first alternating pair by pair and a different
# seed per pair (SEED+1 .. SEED+PAIRS), so no seed the change was
# written against decides the row. Quartiles are the benchmark's own
# (bench/stats.go: Python's statistics.quantiles, exclusive). A side
# wins a pair when its value is the better one by the metric's
# direction in BENCHMARK.json; ties count for neither.
#
# Informational: not a `make check` stage. Reads bench/ and
# BENCHMARK.json, edits nothing. Used by `make bench-pairs`.
set -eu

GO="${GO:-go}"
W="${W:-swe}"
PAIRS="${PAIRS:-10}"
SEED="${SEED:-100}"
if [ -z "${PARENT:-}" ] && [ -z "${PARENT_DIR:-}" ]; then
	echo "usage: PARENT=<rev> [W=swe[,router...]] [PAIRS=10] [SEED=100] $0" >&2
	exit 2
fi

change="$(pwd)"
tmp="$(mktemp -d)"
parent="${PARENT_DIR:-$tmp/parent}"
cleanup() {
	if [ -z "${PARENT_DIR:-}" ]; then
		git worktree remove --force "$parent" > /dev/null 2>&1 || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM
if [ -z "${PARENT_DIR:-}" ]; then
	git worktree add --detach "$parent" "$PARENT" > /dev/null
fi

# run SIDE DIR SEED: one benchmark run of workload $w; its result line
# (the last line of stdout) is printed and kept.
run() {
	line="$(cd "$2" && $GO run -C bench f90y/bench --workload "$w" --seed "$3" --trace 0 | tail -n 1)"
	echo "$w pair $pair seed $3 $1 $line"
	case "$line" in
	"{"*) echo "$line" >> "$tmp/$1.jsonl" ;;
	*) echo "bench-pairs: the $1 run of $w printed no result line" >&2; exit 1 ;;
	esac
}

for w in $(echo "$W" | tr ',' ' '); do
rm -f "$tmp/parent.jsonl" "$tmp/change.jsonl"
pair=1
while [ "$pair" -le "$PAIRS" ]; do
	seed=$((SEED + pair))
	if [ $((pair % 2)) -eq 1 ]; then
		run parent "$parent" "$seed"
		run change "$change" "$seed"
	else
		run change "$change" "$seed"
		run parent "$parent" "$seed"
	fi
	pair=$((pair + 1))
done

# The table. BENCHMARK.json gives each end-to-end metric's direction;
# the result lines give "name":{"value":V, ...} per metric.
awk -v w="$w" '
function quart(v, n, i,    j, d) {
	j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
	d = i * (n + 1) - j * 4
	return (v[j] * (4 - d) + v[j + 1] * d) / 4
}
function fmt(x) {
	if (x < 0) return "-" fmt(-x)
	return sprintf(x >= 1000 ? "%.0f" : x >= 100 ? "%.1f" : x >= 10 ? "%.2f" : "%.3f", x)
}
function stats(side, m, out,    n, i, j, t, v) {
	n = count[side]
	for (i = 1; i <= n; i++) v[i] = val[side, m, i]
	for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
	if (n == 1) { out[1] = out[2] = out[3] = v[1]; return }
	out[1] = quart(v, n, 1); out[2] = quart(v, n, 2); out[3] = quart(v, n, 3)
}
FILENAME ~ /BENCHMARK.json$/ {
	if ($0 ~ /"end_to_end"/) inside = 1
	if ($0 ~ /"per_layer"/) inside = 0
	if (inside && match($0, /"name": *"[^"]+"/)) { name = substr($0, RSTART, RLENGTH); gsub(/"name": *"|"/, "", name); order[++nm] = name }
	if (inside && match($0, /"better": *"[^"]+"/)) { b = substr($0, RSTART, RLENGTH); gsub(/"better": *"|"/, "", b); better[name] = b }
	next
}
{
	side = FILENAME; sub(/.*\//, "", side); sub(/\.jsonl$/, "", side)
	count[side]++
	if ($0 ~ /"correct":false/) wrong[side]++
	for (i = 1; i <= nm; i++) {
		if (match($0, "\"" order[i] "\":\\{\"value\":[-0-9.eE+]+")) {
			s = substr($0, RSTART, RLENGTH); sub(/.*:/, "", s)
			val[side, order[i], count[side]] = s + 0
		}
	}
}
END {
	print ""
	print "| workload | metric | parent median [q1, q3] | change median [q1, q3] | Δ median | change wins | parent IQR |"
	print "|---|---|---|---|---|---|---|"
	n = count["parent"]
	for (i = 1; i <= nm; i++) {
		m = order[i]
		stats("parent", m, p); stats("change", m, c)
		wins = 0
		for (k = 1; k <= n; k++) {
			a = val["parent", m, k]; b = val["change", m, k]
			if ((better[m] == "higher" && b > a) || (better[m] != "higher" && b < a)) wins++
		}
		delta = (p[2] != 0) ? sprintf("%+.1f %%", 100 * (c[2] - p[2]) / p[2]) : "n/a"
		printf "| `%s` | `%s` | %s [%s, %s] | %s [%s, %s] | %s | %d/%d | %s |\n",
			w, m, fmt(p[2]), fmt(p[1]), fmt(p[3]), fmt(c[2]), fmt(c[1]), fmt(c[3]), delta, wins, n, fmt(p[3] - p[1])
	}
	printf "\n%d runs per side; incorrect runs: parent %d, change %d\n", n, wrong["parent"], wrong["change"]
}' BENCHMARK.json "$tmp/parent.jsonl" "$tmp/change.jsonl"
done
