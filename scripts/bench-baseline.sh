#!/usr/bin/env sh
# bench-baseline: record the perf trajectory.
#
# Runs the headline benchmarks — the zero-allocation microbenchmark set,
# one sustainable-throughput search, and the Table I regeneration (the
# repo's end-to-end wall-clock figure) — and writes a BENCH_<date>.json
# snapshot with every reported metric (ns/op, B/op, allocs/op and the
# headline custom metrics).  Committing the snapshot after a perf PR is
# what makes regressions diffable: `make bench-json`, then compare against
# the previous BENCH_*.json.
#
# BENCH_DATE overrides the date stamp (for reproducible filenames in CI);
# BENCH_OUT overrides the output path entirely.  The snapshot records the
# producing git commit and a dirty flag, so `sdpsreport compare` can say
# exactly which trees are being compared.
set -eu
cd "$(dirname "$0")/.."

date_tag=${BENCH_DATE:-$(date +%F)}
out=${BENCH_OUT:-BENCH_${date_tag}.json}

# Provenance: which tree produced this snapshot.  A dirty flag marks
# baselines that cannot be reproduced from any commit.
commit=$(git rev-parse HEAD 2>/dev/null || echo "")
dirty=false
if [ -n "$commit" ] && ! git diff --quiet HEAD 2>/dev/null; then
	dirty=true
fi
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

run() {
	echo "bench-baseline: $*" >&2
	go test -run=NONE "$@" >>"$raw" 2>&1 || { cat "$raw"; exit 1; }
}

: >"$raw"
run -bench='BenchmarkKernelSchedule' -benchmem ./internal/sim/
run -bench='BenchmarkBatchColumnAppend' -benchmem ./internal/tuple/
run -bench='BenchmarkQueuePushPop|BenchmarkQueueBatchTransfer' -benchmem ./internal/queue/
run -bench='BenchmarkGeneratorTick|BenchmarkTapeDraw' -benchmem ./internal/generator/
run -bench='BenchmarkWindowAggregate|BenchmarkWindowKeyedFire' -benchmem ./internal/window/
run -bench='BenchmarkFlatTablePutGet' -benchmem ./internal/flat/
run -bench='BenchmarkFindSustainableQuick' -benchtime=1x -benchmem ./internal/driver/
run -bench='BenchmarkTable1SustainableAggregation' -benchtime=1x -benchmem .

awk -v date="$date_tag" -v commit="$commit" -v dirty="$dirty" '
BEGIN { n = 0; gomaxprocs = 1 }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	if (match(name, /-[0-9]+$/))
		gomaxprocs = substr(name, RSTART + 1)
	sub(/-[0-9]+$/, "", name)
	sub(/^Benchmark/, "", name)
	iters = $2
	m = ""
	for (i = 3; i < NF; i += 2) {
		gsub(/"/, "", $(i+1))
		m = m sprintf("%s\"%s\": %s", (m == "" ? "" : ", "), $(i+1), $i)
	}
	benches[n++] = sprintf("{\"name\": \"%s\", \"iters\": %s, \"metrics\": {%s}}", name, iters, m)
}
END {
	printf "{\n"
	printf "  \"date\": \"%s\",\n", date
	if (commit != "") {
		printf "  \"commit\": \"%s\",\n", commit
		printf "  \"dirty\": %s,\n", dirty
	}
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"cpu\": \"%s\",\n", cpu
	printf "  \"gomaxprocs\": %s,\n", gomaxprocs
	printf "  \"benchmarks\": [\n"
	for (i = 0; i < n; i++)
		printf "    %s%s\n", benches[i], (i < n-1 ? "," : "")
	printf "  ]\n"
	printf "}\n"
}' "$raw" >"$out"

echo "bench-baseline: wrote $out" >&2
