# Tier-1 verification (the seed contract): build + full test suite.
.PHONY: verify
verify:
	go build ./...
	go test ./...

# Concurrency tier: the whole suite under the race detector, not a
# hand-picked subset — every package that starts a goroutine is covered the
# day it does. The scheduler tests deliberately hold >=2 runs in flight, the
# fault-injection, replica-sweep and publish paths all synchronize across
# goroutines, and the root-package differential tests sweep replicas
# concurrently and hold each to its sequential twin, point for point, while
# racing.
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
# alone runs only their seed corpora. A new input is minimized for at most a
# second, not the default minute: a target with kilobyte seeds otherwise
# spends its five seconds minimizing instead of fuzzing. Targets are found by grep, so a new one
# cannot be forgotten; `go test -fuzz` takes one target of one package per
# run, and -C keeps it working for a target under bench/ (its own module).
.PHONY: fuzz-smoke
fuzz-smoke:
	@set -e; \
	for file in $$(grep -rl --include='*_test.go' --exclude-dir=.bench_build '^func Fuzz' .); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$file); do \
			echo "== $$target ($$(dirname $$file))"; \
			go test -C $$(dirname $$file) -run '^$$' -fuzz "^$$target\$$" -fuzztime=5s -fuzzminimizetime=1s .; \
		done; \
	done

# Campaign profile: where one Appendix-A campaign (60 runs through the real
# TCP control plane into a fresh store) spends its CPU and its allocations.
# 200 campaigns of the root BenchmarkAppendixWorkflow under both profilers,
# then the top 25 by cumulative CPU time and by allocated objects, and the
# top 20 by allocated bytes (buffers sized past their traffic show here, not
# in the object count). Stores go to /dev/shm when it is writable, as bench/
# puts them, so the profile shows this code and not the host's disk. Binary
# and profiles stay in .bench_build/ for `go tool pprof -list`.
.PHONY: profile-campaign
profile-campaign:
	@mkdir -p .bench_build
	TMPDIR=$$([ -w /dev/shm ] && echo /dev/shm || echo $${TMPDIR:-/tmp}) \
	go test -run NONE -bench 'BenchmarkAppendixWorkflow$$' -benchtime 200x -benchmem \
		-o .bench_build/campaign.test \
		-cpuprofile .bench_build/campaign.cpu -memprofile .bench_build/campaign.mem .
	@go tool pprof -top -cum .bench_build/campaign.test .bench_build/campaign.cpu 2>/dev/null | head -33
	@go tool pprof -sample_index=alloc_objects -top .bench_build/campaign.test .bench_build/campaign.mem 2>/dev/null | head -32
	@go tool pprof -sample_index=alloc_space -top .bench_build/campaign.test .bench_build/campaign.mem 2>/dev/null | head -27

# Queue profile: what a long-lived controller pays per admitted campaign and
# what each one leaves behind. 2000 campaigns of the root BenchmarkQueueLaunch
# (two fresh vpos replicas, 2 sizes x 4 rates, sched.Campaign.Run) into one
# store that outlives them all, then the top 25 by cumulative CPU time, the
# top 20 by bytes still in use when the last campaign finished, and the top 20
# by bytes allocated over the whole profile (the garbage per campaign).
.PHONY: profile-queue
profile-queue:
	@mkdir -p .bench_build
	TMPDIR=$$([ -w /dev/shm ] && echo /dev/shm || echo $${TMPDIR:-/tmp}) \
	go test -run NONE -bench 'BenchmarkQueueLaunch$$' -benchtime 2000x -benchmem \
		-o .bench_build/queue.test \
		-cpuprofile .bench_build/queue.cpu -memprofile .bench_build/queue.mem .
	@go tool pprof -top -cum .bench_build/queue.test .bench_build/queue.cpu 2>/dev/null | head -33
	@go tool pprof -sample_index=inuse_space -top .bench_build/queue.test .bench_build/queue.mem 2>/dev/null | head -27
	@go tool pprof -sample_index=alloc_space -top .bench_build/queue.test .bench_build/queue.mem 2>/dev/null | head -27

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
# test — no encoding/json outside tests in internal/shell, internal/mgmt,
# internal/wire or internal/eventlog, so the control frames and the event
# journal keep their hand codecs and encoding/json stays their oracle, and
# none in internal/timeline outside tests, so a campaign's spans.json and
# metadata.json are read through jsonenc as they are written — no
# html/template or text/template in internal/ or cmd/ outside tests, so the
# published index page keeps its hand renderer and html/template stays its
# oracle — no file writes in internal/timeline, so analysis stays a reader
# of the experiment it explains — no internal/ package that only tests
# import: code nothing ships is deleted, not kept — no package main but
# cmd/posctl, so the paper runs one way: a figure is a campaign file under
# experiments/campaigns, an API demonstration a package's Example (bench/ is
# a module of its own and keeps its harness) — and no O_APPEND outside tests
# but in internal/eventlog, so there is one append-only log with one crash
# invariant: the queue and the experiments both append to an eventlog.Journal.
# And no metric without a reader: every "pos_…" name a non-test internal/
# file registers as a Counter, Gauge, Histogram or *Vec is named again in a
# _test.go file, in bench/, in cmd/posctl/ (posctl top) or in
# internal/health/probe.go (the watchdog), so no counter restates a record
# that nobody reads.
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
	@out=$$(grep -rn '"encoding/json"' internal/shell internal/mgmt internal/wire internal/eventlog \
		--include='*.go' | grep -v _test.go; true); \
	if [ -n "$$out" ]; then \
		echo "encoding/json imported in internal/shell, internal/mgmt, internal/wire or internal/eventlog (frames and events go through AppendJSON and DecodeJSON; encoding/json is the tests' oracle):"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -rn '"encoding/json"' internal/timeline --include='*.go' | grep -v _test.go; true); \
	if [ -n "$$out" ]; then \
		echo "encoding/json imported in internal/timeline (spans and run metadata go through jsonenc; encoding/json is the tests' oracle):"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -rnE '"(html|text)/template"' internal cmd --include='*.go' | grep -v _test.go; true); \
	if [ -n "$$out" ]; then \
		echo "html/template or text/template imported in internal/ or cmd/ (the index page is rendered by hand; html/template is the tests' oracle):"; \
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
	@out=$$(grep -rn --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build \
		'"net/http"' . | grep -v _test.go | grep -v '^\./internal/api/'; true); \
	if [ -n "$$out" ]; then \
		echo "net/http imported outside internal/api (the controller API is the one HTTP surface: add a route to internal/api):"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -rlE --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build \
		'^package main$$' . | grep -v '^\./cmd/posctl/'; true); \
	if [ -n "$$out" ]; then \
		echo "package main outside cmd/posctl (posctl is the one launcher: ship a campaign file or an Example):"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -rn --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build \
		'O_APPEND' . | grep -v _test.go | grep -v '^\./internal/eventlog/'; true); \
	if [ -n "$$out" ]; then \
		echo "O_APPEND outside internal/eventlog (the event journal is the one append-only log: append events to an eventlog.Journal):"; \
		echo "$$out"; exit 1; fi
	@out=$$(grep -rnE --include='*.go' '(^[[:space:]]*|[{;][[:space:]]*)go [[:alnum:]_(]|time\.(NewTimer|AfterFunc|NewTicker)|sync\.(New)?Cond' \
		internal/results | grep -v _test.go; true); \
	if [ -n "$$out" ]; then \
		echo "go statement, timer or sync.Cond in internal/results (the store writes on its callers' goroutines: commit in WriteRunMeta, write the manifest in Sync):"; \
		echo "$$out"; exit 1; fi
	@out=$$(for name in $$(grep -rhozE --include='*.go' --exclude='*_test.go' \
		'\.(Counter|Gauge|Histogram)(Vec)?\([[:space:]]*"pos_[[:alnum:]_]+"' internal \
		| tr '\0' '\n' | grep -oE 'pos_[[:alnum:]_]+' | sort -u); do \
		grep -rqw --include='*_test.go' --exclude-dir=.bench_build "$$name" . \
			|| grep -rqw "$$name" bench cmd/posctl internal/health/probe.go \
			|| echo "$$name"; \
	done); \
	if [ -n "$$out" ]; then \
		echo "metrics registered in internal/ with no reader (name each in a test, bench/, posctl top or a health probe, or delete it):"; \
		echo "$$out"; exit 1; fi
	@echo "lint clean"

# fuzz-smoke is not part of all: like bench-smoke it guards code `go test
# ./...` only half covers, but it costs five seconds per target.
.PHONY: all
all: verify race bench-smoke
