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

# Static hygiene: vet, a clean gofmt tree, no raw log/print logging in
# library code — an internal/ package that has something to report publishes
# an event on the run's eventlog pipeline, never to stdout/stderr directly —
# no log/slog in internal/ or cmd/, so no second logging path grows beside
# the event pipeline, no runtime introspection outside internal/telemetry, so resource
# attribution has exactly one owner, no engine-mode switch outside the
# engine and the topology builder — the scalar event-per-hop path is the
# differential tests' oracle, reached only through Engine.SetBatching in a
# test — no file writes in internal/timeline, so analysis stays a reader of
# the experiment it explains — and no internal/ package that only tests
# import: code nothing ships is deleted, not kept.
.PHONY: lint
lint:
	go vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'log\.(Print|Fatal|Panic)|fmt\.Print' internal \
		--include='*.go' | grep -v _test.go; true); \
	if [ -n "$$out" ]; then \
		echo "raw logging in internal/ (publish an event on the eventlog pipeline):"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -rn '"log/slog"' internal cmd --include='*.go' | grep -v _test.go; true); \
	if [ -n "$$out" ]; then \
		echo "log/slog imported in internal/ or cmd/ (publish an event on the eventlog pipeline; the event journal is the one record):"; \
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
	@out=$$(grep -rn 'SetBatching(' --include='*.go' --exclude-dir=.bench_build . \
		| grep -v _test.go | grep -vE '^\./internal/(sim|topo)/'; true); \
	if [ -n "$$out" ]; then \
		echo "SetBatching outside internal/sim and internal/topo (the scalar engine is a test-only oracle):"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'os\.(WriteFile|Create|OpenFile)' internal/timeline --include='*.go' \
		| grep -v _test.go; true); \
	if [ -n "$$out" ]; then \
		echo "file write in internal/timeline (analysis is a reader: the timeline is a view, never a file in the experiment):"; \
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
