#!/bin/sh
# bench.sh — perf-trajectory tooling: runs every repository benchmark with
# -benchmem and emits a machine-readable JSON file (one record per
# benchmark: every "value unit" pair of its result line — ns/op, B/op,
# allocs/op and whatever custom metrics it reports, e.g. peak-B/op,
# commits/s, appends/fsync, atom-fetches/op, ns-to-first-molecule — keyed
# by the sanitised unit) so CI can archive the trajectory per commit.
# Non-gating: numbers are for trend lines, not pass/fail (the P16/P17
# work-ratio gates live inside the benchmarks themselves and fail the
# run outright).
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME  go test -benchtime value (default 1x: smoke-level noise,
#              raise to e.g. 100x or 1s for trend-quality numbers)
#   BENCH      -bench pattern (default ".")
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH.json}"
benchtime="${BENCHTIME:-1x}"
pattern="${BENCH:-.}"

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem ./... >"$raw"

awk -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
	-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-v goversion="$(go env GOVERSION)" '
BEGIN {
	printf "{\n  \"commit\": \"%s\",\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [", commit, date, goversion
	n = 0
}
# key turns a benchmark unit into a JSON key: "/" reads "per", a bare "B"
# is bytes, anything else non-alphanumeric becomes "_" — so ns/op is
# ns_per_op, peak-B/op is peak_bytes_per_op, and a metric a benchmark
# starts reporting tomorrow needs no edit here. (No apostrophes in this
# program: it sits inside single quotes.)
function key(unit,    k) {
	k = unit
	gsub(/\//, "_per_", k)
	gsub(/[^A-Za-z0-9_]/, "_", k)
	k = "_" k "_"
	gsub(/_B_/, "_bytes_", k)
	return substr(k, 2, length(k) - 2)
}
/^Benchmark/ {
	# name, iterations, then "value unit" pairs.
	rec = ""
	timed = 0
	for (i = 3; i < NF; i += 2) {
		if ($i !~ /^[0-9.eE+-]+$/) break
		if ($(i + 1) == "ns/op") timed = 1
		rec = rec sprintf(", \"%s\": %s", key($(i + 1)), $i)
	}
	if (!timed) next
	if (n++) printf ","
	printf "\n    {\"name\": \"%s\", \"iterations\": %s%s}", $1, $2, rec
}
END { printf "\n  ]\n}\n" }
' "$raw" >"$out"

count=$(grep -c '"name"' "$out" || true)
echo "bench.sh: wrote $count benchmark record(s) to $out"
