#!/usr/bin/env sh
# bench-smoke: the CI allocation-regression gate.
#
# Runs the pinned zero-allocation hot-path microbenchmarks for 100
# iterations each with -benchmem and fails if any of them reports a
# non-zero allocs/op.  allocs/op is the iteration mean rounded down, so
# one allocation per op still fails, while a one-off runtime allocation
# during the timed loop (an OS-thread start after a stop-the-world, which
# allocates a handful of objects in runtime.newm) rounds to 0 instead of
# failing a single-iteration run.  These
# benchmarks are the steady-state contracts of DESIGN-PERF.md: the queue
# ring, the generator tick, the window aggregation slab recycling, the
# kernel's value-based scheduler (§7), the flat keyed-state tables,
# the keyed window fire path (§8) and the buffered join fire path (§2)
# must never allocate per event.
set -eu
cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT

if ! go test -run=NONE \
	-bench='BenchmarkQueuePushPop|BenchmarkGroupScatterDrain|BenchmarkGeneratorTick|BenchmarkWindowAggregate|BenchmarkWindowKeyedFire|BenchmarkWindowJoinFire|BenchmarkKernelSchedule|BenchmarkFlatTablePutGet|BenchmarkBatchColumnAppend' \
	-benchtime=100x -benchmem \
	./internal/queue/ ./internal/generator/ ./internal/window/ ./internal/sim/ ./internal/flat/ ./internal/tuple/ >"$out" 2>&1; then
	cat "$out"
	exit 1
fi
cat "$out"

awk '
/^Benchmark/ {
	for (i = 1; i <= NF; i++)
		if ($i == "allocs/op" && $(i-1) + 0 > 0) {
			bad = bad "\n  " $1 ": " $(i-1) " allocs/op"
		}
}
END {
	if (bad != "") {
		printf "bench-smoke: allocation regression in pinned 0-allocs/op benchmarks:%s\n", bad
		exit 1
	}
	print "bench-smoke: all pinned benchmarks report 0 allocs/op"
}' "$out"
