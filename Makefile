# Tier-1 verification (the seed contract): build + full test suite.
.PHONY: verify
verify:
	go build ./...
	go test ./...

# Concurrency tier: the whole suite under the race detector, not a
# hand-picked subset — every package that starts a goroutine is covered the
# day it does. The scheduler tests deliberately hold >=2 runs in flight, the
# fault-injection, replica-sweep and publish paths all synchronize across
# goroutines, and the root-package differential tests hold the parallel
# replica sweep to its sequential twin, byte for byte, while racing.
.PHONY: verify-race
verify-race:
	go build ./...
	go test -race ./...

.PHONY: race
race: verify-race
	go vet ./...

# The repository's one end-to-end benchmark (BENCHMARK.json, bench/README.md):
# bench-e2e runs all four workloads, end-to-end pass then traced pass;
# bench-smoke is its own test suite (digests, step partition, metric names).
# bench/ is a module of its own that imports pos/internal/..., so `go test
# ./...` never compiles it: bench-smoke rides in `make all` to catch a
# root-module change that breaks it.
.PHONY: bench-e2e
bench-e2e:
	bash bench/run.sh

.PHONY: bench-smoke
bench-smoke:
	go test -C bench ./...

# Fuzz tier: every fuzz target in the tree, five seconds each. `go test`
# alone runs only their seed corpora. Targets are found by grep, so a new one
# cannot be forgotten; `go test -fuzz` takes one target of one package per
# run, and -C keeps it working for a target under bench/ (its own module).
.PHONY: fuzz-smoke
fuzz-smoke:
	@set -e; \
	for file in $$(grep -rl --include='*_test.go' --exclude-dir=.bench_build '^func Fuzz' .); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$file); do \
			echo "== $$target ($$(dirname $$file))"; \
			go test -C $$(dirname $$file) -run '^$$' -fuzz "^$$target\$$" -fuzztime=5s .; \
		done; \
	done

# Performance tier: the speedup benchmark added with the campaign
# scheduler (sequential vs. 2-replica sweep).
.PHONY: bench
bench:
	go test -run NONE -bench BenchmarkParallelSweep -benchtime 3x .

# Campaign profile: where one Appendix-A campaign (60 runs through the real
# TCP control plane into a fresh store) spends its CPU and its allocations.
# 200 campaigns of the root BenchmarkAppendixWorkflow under both profilers,
# then the top 25 by cumulative CPU time and by allocated objects. Stores go
# to /dev/shm when it is writable, as bench/ puts them, so the profile shows
# this code and not the host's disk. Binary and profiles stay in
# .bench_build/ for `go tool pprof -list`.
.PHONY: profile-campaign
profile-campaign:
	@mkdir -p .bench_build
	TMPDIR=$$([ -w /dev/shm ] && echo /dev/shm || echo $${TMPDIR:-/tmp}) \
	go test -run NONE -bench 'BenchmarkAppendixWorkflow$$' -benchtime 200x -benchmem \
		-o .bench_build/campaign.test \
		-cpuprofile .bench_build/campaign.cpu -memprofile .bench_build/campaign.mem .
	@go tool pprof -top -cum .bench_build/campaign.test .bench_build/campaign.cpu 2>/dev/null | head -33
	@go tool pprof -sample_index=alloc_objects -top .bench_build/campaign.test .bench_build/campaign.mem 2>/dev/null | head -32

# Queue profile: what a long-lived controller pays per admitted campaign and
# what each one leaves behind. 2000 campaigns of the root BenchmarkQueueLaunch
# (two fresh vpos replicas, 2 sizes x 4 rates, sched.Campaign.Run) into one
# store that outlives them all, then the top 25 by cumulative CPU time and the
# top 20 by bytes still in use when the last campaign finished.
.PHONY: profile-queue
profile-queue:
	@mkdir -p .bench_build
	TMPDIR=$$([ -w /dev/shm ] && echo /dev/shm || echo $${TMPDIR:-/tmp}) \
	go test -run NONE -bench 'BenchmarkQueueLaunch$$' -benchtime 2000x -benchmem \
		-o .bench_build/queue.test \
		-cpuprofile .bench_build/queue.cpu -memprofile .bench_build/queue.mem .
	@go tool pprof -top -cum .bench_build/queue.test .bench_build/queue.cpu 2>/dev/null | head -33
	@go tool pprof -sample_index=inuse_space -top .bench_build/queue.test .bench_build/queue.mem 2>/dev/null | head -27

# Data-plane profile: where the emulated data plane spends its CPU with no
# control plane or store around it. 300 iterations each of the root
# BenchmarkFigure3bVirtual (vpos: seeded VM jitter, overload drops) and
# BenchmarkFigure3aBareMetal (the cut-through single timeline) under
# -cpuprofile, then the top 25 by flat and by cumulative CPU time. Binary
# and profile stay in .bench_build/ for `go tool pprof -list`.
.PHONY: profile-dataplane
profile-dataplane:
	@mkdir -p .bench_build
	go test -run NONE -bench 'BenchmarkFigure3(bVirtual|aBareMetal)$$' -benchtime 300x \
		-o .bench_build/dataplane.test -cpuprofile .bench_build/dataplane.cpu .
	@go tool pprof -top .bench_build/dataplane.test .bench_build/dataplane.cpu 2>/dev/null | head -33
	@go tool pprof -top -cum .bench_build/dataplane.test .bench_build/dataplane.cpu 2>/dev/null | head -33

# Retry-overhead tier: fault-free vs. faulty campaign wall clock. The
# overhead ratio is recorded next to the code in BENCH_sched.json.
.PHONY: bench-sched-faults
bench-sched-faults:
	BENCH_RESULTS_OUT=$(CURDIR)/BENCH_sched.json \
	go test -run NONE -bench BenchmarkSchedFaultRetry -benchtime 3x .

# Telemetry-overhead tier: the instrumented 60-run vpos sweep against the
# same sweep with the registry disabled. The median ratio is recorded in
# BENCH_telemetry.json; the budget for always-on instrumentation is 5%.
.PHONY: bench-telemetry
bench-telemetry:
	BENCH_RESULTS_OUT=$(CURDIR)/BENCH_telemetry.json \
	go test -run NONE -bench BenchmarkTelemetryOverhead -benchtime 3x .

# Eventlog-overhead tier: the 60-run vpos sweep with the full event
# pipeline armed (publish + JSONL journal + one live subscriber) against
# the same sweep bare. The median ratio is recorded in BENCH_eventlog.json;
# the budget is 5% — watching an experiment must not change the experiment.
.PHONY: bench-eventlog
bench-eventlog:
	BENCH_RESULTS_OUT=$(CURDIR)/BENCH_eventlog.json \
	go test -run NONE -bench BenchmarkEventlogOverhead -benchtime 3x .

# Health-overhead tier: the 60-run vpos sweep with the full health stack
# armed (runtime sampler, watchdog with the three standard probes) against
# the same instrumented sweep bare. The median ratio is recorded in
# BENCH_health.json; the budget is 5% — a supervisor that distorts the
# experiment it supervises is worse than none.
.PHONY: bench-health
bench-health:
	BENCH_RESULTS_OUT=$(CURDIR)/BENCH_health.json \
	go test -run NONE -bench BenchmarkHealthOverhead -benchtime 3x .

# Trace tier: the causal-tracing layer — W3C identity generation per span
# and the analyze-time critical-path stitching — priced against the 60-run
# vpos sweep's wall clock. Recorded in BENCH_trace.json; the budget is 5%
# (the bench fails past 1.05x).
.PHONY: bench-trace
bench-trace:
	BENCH_RESULTS_OUT=$(CURDIR)/BENCH_trace.json \
	go test -run NONE -bench BenchmarkTraceOverhead -benchtime 3x .

# Static hygiene: vet, a clean gofmt tree, no raw log/print logging in
# library code — internal/ packages log through the structured eventlog
# spine (log/slog into the event pipeline), never stdout/stderr directly —
# no runtime introspection outside internal/telemetry, so resource
# attribution has exactly one owner, and no internal/ package that only
# tests import: code nothing ships is deleted, not kept.
.PHONY: lint
lint:
	go vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'log\.(Print|Fatal|Panic)|fmt\.Print' internal \
		--include='*.go' | grep -v _test.go; true); \
	if [ -n "$$out" ]; then \
		echo "raw logging in internal/ (use the eventlog slog spine):"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'runtime\.ReadMemStats|"runtime/metrics"' internal cmd \
		--include='*.go' | grep -v '^internal/telemetry/'; true); \
	if [ -n "$$out" ]; then \
		echo "runtime introspection outside internal/telemetry:"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'mux\.HandleFunc\("' internal/api --include='*.go' \
		| grep -v _test.go \
		| grep -vE '"GET /metrics|"GET /api/v1/metrics|"GET /api/v1/events|"GET /debug/pprof'; true); \
	if [ -n "$$out" ]; then \
		echo "internal/api endpoint registered without a request span (route it through handle(), which wraps s.instrument; streaming/scrape endpoints join the allowlist in the Makefile):"; \
		echo "$$out"; exit 1; fi
	@out=$$(for dir in internal/*/; do \
		pkg=pos/$${dir%/}; \
		grep -rq --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build "\"$$pkg\"" . \
			|| echo "$$pkg"; \
	done); \
	if [ -n "$$out" ]; then \
		echo "internal/ packages with no non-test importer:"; \
		echo "$$out"; exit 1; fi
	@echo "lint clean"

# fuzz-smoke is not part of all: like bench-smoke it guards code `go test
# ./...` only half covers, but it costs five seconds per target.
.PHONY: all
all: verify race bench-smoke
