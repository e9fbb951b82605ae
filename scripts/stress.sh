#!/bin/sh
# stress.sh — hammers the MVCC mixed read/write path and the durability
# path: the headline snapshot-isolation stress tests (concurrent
# transaction writers vs streaming Plan.Stream readers with background
# vacuum, the storage property tests — type definitions buffered in a
# transaction included — DEFINE as one commit beside concurrent readers,
# EXPLAIN byte-equal however often a statement ran beside concurrent
# streams, and the wire-level server transaction workload), the planner's
# one differential harness in its long form (configurations: structures,
# recursive closures and dirty transaction views, about one case in four
# with more than two executor batches of roots; steps: every access path
# forced with 1, 3 and 8 workers, actuals compared, each stream closed
# again at a random point, then reloaded from a state file and propagated
# through DEFINE) plus the WAL kill-and-recover suite (a fault is
# injected at every write and fsync of the log, then the directory is
# recovered and compared against an in-memory twin) run repeatedly under
# the race detector. Gating: any torn molecule, version-tear,
# vacuum-reclaimed-live-version, non-prefix recovery or data race fails.
#
# Usage: scripts/stress.sh
#   COUNT    repetitions per test binary (default 5)
#   TIMEOUT  go test timeout (default 10m)
set -eu
cd "$(dirname "$0")/.."

count="${COUNT:-5}"
timeout="${TIMEOUT:-10m}"

echo "== storage: transaction + snapshot/vacuum property tests (race, -count=$count)"
go test -race -count="$count" -timeout "$timeout" \
	-run 'TestTxn|TestVacuum|TestSnapshot|Property' ./internal/storage/

echo "== storage: WAL kill-and-recover crash injection (race, -count=$count)"
go test -race -count="$count" -timeout "$timeout" \
	-run 'TestCrashInjection|TestTornTail|TestRecoveryRoundTrip|TestGroupCommit|TestCheckpoint|TestMidCheckpoint|TestWALRecordBound' ./internal/storage/

echo "== mql: DEFINE is one commit beside concurrent readers (race, -count=$count)"
go test -race -count="$count" -timeout "$timeout" \
	-run 'TestDefineIsOneCommit|TestTxnDDLAndDefine' ./internal/mql/

echo "== plan: writers vs streaming readers stress, deterministic EXPLAIN (race, -count=$count)"
go test -race -count="$count" -timeout "$timeout" \
	-run 'TestMVCCStress|TestExplainDeterministic' ./internal/plan/

# The closure and dirty-view configurations fan reads through a
# transaction's View and the per-round closure loop over the worker pool;
# the many-roots cases run the root-filter hook, the unbounded ORDER BY
# heap and the pipelined dispatcher under 3 and 8 workers.
echo "== plan: differential harness — forced paths, close-early prefix, reloaded, propagated; structures, closures, dirty views (race, 1000 checks)"
go test -race -timeout "$timeout" \
	-run 'TestForcedPathParityRandom' ./internal/plan/ -quickchecks 1000

echo "== server: concurrent transactions over the wire (race, -count=$count)"
go test -race -count="$count" -timeout "$timeout" \
	-run 'TestServerConcurrentTxn|TestServerTxn|TestServerDropped' ./internal/server/

echo "stress.sh: all MVCC stress suites passed"
