#!/bin/sh
# loc.sh — the code-line figures simplicity PRs quote: non-blank,
# non-comment lines of .go source, non-test and _test.go separately, per
# pipeline package, for the storage layer below them and repo-wide outside
# benchmark/ (a module of its own that engine PRs may not edit).
# Exported-identifier counts of the packages whose surface the issues
# bound ride along.
#
# Usage: scripts/loc.sh [dir]   (default: the repository root)
set -eu
scripts=$(cd "$(dirname "$0")" && pwd)
cd "${1:-$scripts/..}"

# count <test|code> <dir>...: code lines of the matching .go files.
count() {
	kind=$1
	shift
	if [ "$kind" = test ]; then
		find "$@" -name '*_test.go' -not -path './benchmark/*' -print0
	else
		find "$@" -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0 2>/dev/null
	fi | xargs -0 cat 2>/dev/null | grep -v '^[[:space:]]*//' | grep -vc '^[[:space:]]*$' || true
}

printf '%-20s %9s %9s\n' package non-test _test.go
sum=0
for pkg in core plan mql recursive server; do
	n=$(count code "internal/$pkg")
	sum=$((sum + n))
	printf '%-20s %9d %9d\n' "internal/$pkg" "$n" "$(count test "internal/$pkg")"
done
printf '%-20s %9d\n' "the five together" "$sum"
# Algebra mode: the molecule-type operators, the propagation sink, the
# atom-type operators of Definition 4 and the MQL executor.
printf '%-20s %9d\n' algebra "$(count code internal/core/ops.go internal/core/prop.go internal/atomalg/atomalg.go internal/mql/exec.go)"
# The storage layer proper: the package's own files, not storage/stats —
# and the catalog of committed types beside it.
printf '%-20s %9d %9d\n' internal/storage "$(count code internal/storage/*.go)" "$(count test internal/storage/*.go)"
printf '%-20s %9d %9d\n' internal/catalog "$(count code internal/catalog)" "$(count test internal/catalog)"
printf '%-20s %9d %9d\n' "repo (no benchmark/)" "$(count code .)" "$(count test .)"
printf '%-20s %9s %9d\n' "  _test.go, raw lines" "" \
	"$(find . -name '*_test.go' -not -path './benchmark/*' -print0 | xargs -0 cat | wc -l)"

# Exported identifiers: top-level declarations, the methods and struct
# fields of exported types (scripts/exports.go, run inside this script's
# module so that dir may be any checkout).
for pkg in storage core plan mql; do
	n=$(cd "$scripts" && go run exports.go "$OLDPWD/internal/$pkg")
	printf 'exported identifiers  internal/%-7s %d\n' "$pkg" "$n"
done
