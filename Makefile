# Repro build/test entry points.  `make ci` is the gate every change must
# pass: static checks, a full build, the test suite, a race pass over the
# concurrent executor and control-plane paths, and a bench smoke that FAILS
# if any pinned zero-allocation hot-path benchmark regresses to >0
# allocs/op.  `make smoke` boots the distributed controller (sdpsd + 2
# agents) and byte-compares its table1 artifact against a direct sdpsbench
# run.  `make bench-json` snapshots the headline benchmarks into a
# BENCH_<date>.json for the perf trajectory; `make compare-gate` diffs a
# fresh snapshot against the newest committed one and fails on regression
# (tolerances in scripts/gate-thresholds.json).  `make identity
# BASE=<rev>` byte-compares this checkout's artifacts against a base
# revision's; it is not part of `ci` because it needs a base.

GO ?= go

.PHONY: ci vet build test bench-smoke bench bench-json race smoke scenario-validate chaos compare-gate fuzz fuzz-explore profile identity

ci: vet build test race bench-smoke fuzz scenario-validate chaos compare-gate

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# 100 iterations of each hot-path microbenchmark with -benchmem; fails on
# any non-zero allocs/op (the alloc-regression gate).
bench-smoke:
	scripts/bench-smoke.sh

# The full paper-artefact benchmark suite (quick scale).
bench:
	$(GO) test -run=NONE -bench=. -benchmem .

# Snapshot the headline benchmarks (allocs/op, B/op, wall, headline
# metrics) into BENCH_<date>.json; commit it after perf-relevant PRs.
bench-json:
	scripts/bench-baseline.sh

# Profile a representative run (table1, quick scale) with the bench
# binary's own -cpuprofile/-memprofile flags; inspect with
# `go tool pprof out/profile/{cpu,mem}.pprof`.  Override the experiment
# or scale with PROFILE_ARGS="-exp fig9 -scale full".
PROFILE_ARGS ?= -exp table1
profile:
	mkdir -p out/profile
	$(GO) run ./cmd/sdpsbench $(PROFILE_ARGS) \
		-cpuprofile out/profile/cpu.pprof -memprofile out/profile/mem.pprof > out/profile/run.txt
	@echo "profiles: out/profile/cpu.pprof out/profile/mem.pprof (run text in out/profile/run.txt)"

# Perf-regression gate: fresh benchmark snapshot compared against the
# newest committed BENCH_*.json via `sdpsreport compare --gate`
# (tolerances in scripts/gate-thresholds.json).  Fails on regression or
# on benchmark-set drift without a new committed baseline.
compare-gate:
	scripts/compare-gate.sh

# Race-check the parallel experiment executor, the speculative
# sustainable-throughput search (whose probe-arena pool is shared across
# speculation workers), the generator's process-wide draw tapes (read and
# extended by concurrent runs), the flat keyed-state tables, and the
# coordinator/agent control plane (ctl runs -short: the synthetic
# lease/failover tests cover the concurrency; the byte-identity
# integration tests run in `test`), plus the ctl journal, resume and agent
# tests in full.
race:
	GOMAXPROCS=4 $(GO) test -race ./internal/par/
	GOMAXPROCS=4 $(GO) test -race ./internal/flat/
	GOMAXPROCS=4 $(GO) test -race ./internal/generator/ -run 'TestTapeConcurrentReaders|TestTapeBudget'
	GOMAXPROCS=4 $(GO) test -race ./internal/driver/ -run 'TestSpeculative|TestWarmStart|TestProbe'
	GOMAXPROCS=4 $(GO) test -race ./internal/scenario/ -run 'TestTable1Shape'
	GOMAXPROCS=4 $(GO) test -race ./internal/core/ -run 'TestReplicate|TestExp4Shape'
	$(GO) test -race -short ./internal/ctl/
	$(GO) test -race ./internal/ctl/ -run 'TestJournal|TestResume|TestAgent'

# Seed-corpus fuzz pass: each fuzz target's seed corpus runs as unit
# tests, guarding the decode → Validate → evaluate paths (the
# coordinator's validateSpec among them) against panics on malformed
# fault schedules and scenario JSON, and the control API's request
# decoding (bodies and the lease long poll's wait) against 5xx answers.
# `make fuzz-explore` fuzzes beyond the corpora.
fuzz:
	$(GO) test -run 'FuzzScheduleValidate|FuzzRescaleValidate' ./internal/fault/
	$(GO) test -run 'FuzzSpecJSON' ./internal/scenario/
	$(GO) test -run 'FuzzAPIRequests' ./internal/ctl/

# Exploratory fuzzing: each target mutates its corpus for 15 s.  A
# crasher lands in the package's testdata/fuzz/<target>/; commit it, and
# `make fuzz` replays it as a regression seed from then on.
fuzz-explore:
	$(GO) test -run NONE -fuzz '^FuzzAPIRequests$$' -fuzztime 15s ./internal/ctl/
	$(GO) test -run NONE -fuzz '^FuzzSpecJSON$$' -fuzztime 15s ./internal/scenario/
	$(GO) test -run NONE -fuzz '^FuzzScheduleValidate$$' -fuzztime 15s ./internal/fault/
	$(GO) test -run NONE -fuzz '^FuzzRescaleValidate$$' -fuzztime 15s ./internal/fault/

# Every shipped scenario spec must parse, validate and compile.
scenario-validate:
	$(GO) run ./cmd/sdpsbench -scenario-validate examples/scenarios/*.json

# Byte-identity oracle of a refactor: BASE's sdpsbench and this checkout's
# must print byte-identical `-all` and `examples/scenarios/*.json`
# artifacts, and this checkout's `-all` must not depend on GOMAXPROCS.
identity:
	scripts/identity.sh $(BASE)

# End-to-end controller smoke: sdpsd + 2 in-process agents run table1 and a
# scenario spec at quick scale; each fetched artifact must be byte-identical
# to the corresponding direct sdpsbench run.
smoke:
	scripts/smoke-ctl.sh

# Chaos smoke: the crash-recovery scenario (engine faults injected by its
# fault schedule) runs while the external agent is SIGKILLed/restarted and
# the coordinator is SIGKILLed and resumed from its journal; the artifact
# must still be byte-identical to a direct run.  See DESIGN-FAULT.md.
chaos:
	scripts/chaos-smoke.sh
