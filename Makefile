GO ?= go
GOFMT ?= gofmt

.PHONY: all help build fmt vet staticcheck test race bench bench-engine perfbench alloc check fuzz smoke serve-smoke shape profile ci clean

all: build vet test

help:
	@echo "nocstar targets:"
	@echo "  build        compile all packages"
	@echo "  test         run the full test suite"
	@echo "  race         full test suite under the race detector"
	@echo "  bench        short performance smoke benchmarks: figures, engine queue, TLB probes, page walks, serve cache hits"
	@echo "  perfbench    the benchmark module's own tests, including its committed result digests"
	@echo "  alloc        zero-allocation gates for the translation critical path, and set-up allocation bounds for engines, caches and system.New"
	@echo "  check        invariant-checker gate: shadow-oracle runs + fuzz seed corpora"
	@echo "  fuzz         open-ended randomized checking (grows fuzz corpora)"
	@echo "  smoke        end-to-end smoke: nocstar-exp report read back with jq and its -trace checked, a config document and a trace replay through nocstar-sim"
	@echo "  serve-smoke  the server's e2e tests: submit/poll/events/cache/sweep/restart/read endpoints, stored run IDs after a restart, refused configs"
	@echo "  shape        the paper's headline claims at reduced scale (NOCSTAR > distributed > private, ideal within 5%)"
	@echo "  profile      CPU/heap profiles of the Table III sweep"
	@echo "  ci           build fmt vet staticcheck race bench perfbench alloc check shape smoke serve-smoke"

build:
	$(GO) build ./...

# Fails if any file needs reformatting (prints the offenders).
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck is optional tooling: run it when installed, skip (loudly)
# when the environment doesn't have it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping"; fi

test:
	$(GO) test ./...

# The race detector permanently covers the parallel runner and every
# driver that submits through it.
race:
	$(GO) test -race ./...

# Short smoke at benchOptions() scale: representative figures plus the
# engine event-queue microbenchmarks, which schedule typed Actor events
# the way the simulator does, from a few to about 1024 events per cycle
# (watch allocs/op: the timing wheel must stay allocation-free in steady
# state), the TLB array lookup/insert probes
# and the page-table descent of an L1 miss (both 0 allocs/op), and the
# serve tier's cache-hit round trip through nocstar/client over 256
# stored configs (ns/op and allocs/op of one hit, both ends).
bench:
	$(GO) test -run xxx -bench 'BenchmarkFig12$$|BenchmarkFig16Left$$|BenchmarkFig11c$$' -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkScheduleRun' -benchtime 1s -benchmem ./internal/engine/
	$(GO) test -run xxx -bench 'BenchmarkLookup|BenchmarkInsert' -benchtime 1s -benchmem ./internal/tlb/
	$(GO) test -run xxx -bench 'BenchmarkEnsure' -benchtime 1s -benchmem ./internal/vm/
	$(GO) test -run xxx -bench 'BenchmarkSubmitCacheHit' -benchtime 1s -benchmem ./internal/server/

bench-engine:
	$(GO) test -run xxx -bench . -benchtime 2s -benchmem ./internal/engine/

# The benchmark module (perfbench/, its own go.mod) and its tests, which
# check the committed result digests of every workload. Performance is
# recorded with `bash perfbench/run.sh` and compared offline with
# `bash perfbench/run.sh -compare old.json new.json` (EXPERIMENTS.md
# "Tracking performance per PR").
perfbench:
	cd perfbench && $(GO) test ./...

# The allocation-regression gate: the steady-state translation critical
# path (NoC request/grant round trip, and the full system access path)
# and shootdown delivery must stay at exactly zero heap allocations.
# Set-up is bounded too: a cache is its header and one set-major slice of
# lines whatever its geometry (the 8 MB LLC included), a walker view
# allocates only its own L2 and the hierarchy, a 32-core NOCSTAR
# system.New stays under 2000 allocations, and an engine is its header
# and its bucket array (wheel chunks are taken as events arrive).
alloc:
	$(GO) test -run 'TestNewAllocs' -count 1 -v ./internal/engine/
	$(GO) test -run 'TestRequestPathAllocFree' -count 1 -v ./internal/noc/
	$(GO) test -run 'TestAccessL2AllocFree|TestDeliverInvalidationsAllocFree|TestNewAllocs' -count 1 -v ./internal/system/
	$(GO) test -run 'TestNewAllocs' -count 1 -v ./internal/cache/

# The invariant-checker gate (internal/check): the checker's own unit and
# circuit-shadow tests, every organization run under the shadow oracle
# (including the legacy-release reintroduction), shootdown bursts
# scrubbing populated arrays, the pinned shootdown port charges, the
# prefetch neighbours at both ends of the address space, the set-major
# caches against their per-set reference, and the fuzz seed corpora of
# the page-table, checked-system, config-decoding, trace-reading,
# burst-invalidation, cache-reference and store-blob-adoption fuzzers.
# Deterministic — `go test` executes fuzz targets over their seeds only.
check:
	$(GO) test -count 1 ./internal/check/
	$(GO) test -count 1 -run 'TestChecked|TestCheckerCatches|TestShootdownPortChargesPinned|TestStormContextSwitch|TestBurstScrubsPopulatedArrays|TestPrefetchAtAddressSpaceEdges|FuzzCheckedSystem|FuzzUnmarshalConfig' ./internal/system/
	$(GO) test -count 1 -run 'TestInvalidateBurst|TestBurstAdd|FuzzInvalidateBurst' ./internal/tlb/
	$(GO) test -count 1 -run 'TestPromote2M|FuzzPageTable' ./internal/vm/
	$(GO) test -count 1 -run 'FuzzTraceRead' ./internal/trace/
	$(GO) test -count 1 -run 'TestCacheMatchesReference|FuzzCacheMatchesReference' ./internal/cache/
	$(GO) test -count 1 -run 'FuzzAdoptBlob' ./internal/server/

# Open-ended randomized checking (not part of ci): grow the fuzz corpora.
fuzz:
	cd internal/vm && $(GO) test -fuzz FuzzPageTable -fuzztime 30s .
	cd internal/system && $(GO) test -fuzz FuzzCheckedSystem -fuzztime 60s -run FuzzCheckedSystem .
	cd internal/system && $(GO) test -fuzz FuzzUnmarshalConfig -fuzztime 30s -run FuzzUnmarshalConfig .
	cd internal/trace && $(GO) test -fuzz FuzzTraceRead -fuzztime 30s -run FuzzTraceRead .
	cd internal/tlb && $(GO) test -fuzz FuzzInvalidateBurst -fuzztime 30s -run FuzzInvalidateBurst .
	cd internal/cache && $(GO) test -fuzz FuzzCacheMatchesReference -fuzztime 30s -run FuzzCacheMatchesReference .
	cd internal/server && $(GO) test -fuzz FuzzAdoptBlob -fuzztime 30s -run FuzzAdoptBlob .

# End-to-end smoke of the report pipeline (tiny run, JSON document out,
# then the README's jq recipe must pull Fig. 12's series out of it), of
# -trace (its Chrome trace must hold a non-empty traceEvents array; both
# jq checks are skipped without jq) and of the config front door: a
# 4-core document piped to nocstar-sim, then the same document replaying
# a captured 4-thread trace.
SMOKE_DOC = {"org":"nocstar","cores":4,"apps":[{"workload":"canneal","threads":4}],"instr_per_thread":2000,"seed":1}
REPORT_JQ = .experiments[] | select(.id == "fig12") | .data.Speedup | tostream | select(length == 2) | flatten | @csv

smoke:
	$(GO) run ./cmd/nocstar-exp -quiet -instr 2000 -report /tmp/nocstar-report.json -trace /tmp/nocstar-smoke-trace.json fig12
	@if command -v jq >/dev/null 2>&1; then \
		jq -r '$(REPORT_JQ)' /tmp/nocstar-report.json | grep -q . || \
			{ echo "smoke: the README's jq recipe found no fig12 series in the report"; exit 1; }; \
		jq -e '.traceEvents | length > 0' /tmp/nocstar-smoke-trace.json >/dev/null || \
			{ echo "smoke: -trace wrote no traceEvents"; exit 1; }; \
	else \
		echo "jq: not installed, skipping the report recipe and the trace check"; fi
	$(GO) run ./cmd/nocstar-trace gen -workload canneal -threads 4 -refs 2000 -o /tmp/nocstar-smoke.trc
	echo '$(SMOKE_DOC)' | $(GO) run ./cmd/nocstar-sim -
	echo '$(SMOKE_DOC)' | $(GO) run ./cmd/nocstar-sim - /tmp/nocstar-smoke.trc

# End-to-end smoke of the HTTP service: the server's own e2e tests,
# driven through the public client over loopback listeners. A run's
# result is byte-identical to a direct in-process Run and a resubmission
# is a cache hit; a run's event stream carries its status frames to a
# terminal one; a sweep streams over SSE and replays from the store;
# the persistent store survives a restart, and a restarted server
# answers its predecessor's run IDs from the store; the read endpoints
# answer; a resubmission right after a cancel runs; a canonical body
# served from the memory tier answers what the full path answers, and
# spliced status bodies are the encoder's bytes; an unbuildable config,
# or one naming a removed field, gets a 400. `-run` ignores a name that
# matches nothing, so the target first fails if any listed test is
# missing from the package.
SERVE_SMOKE_TESTS = TestSubmitPollByteIdentical|TestEvents|TestSweepSSE|TestSweepServesFromStore|TestRestartSurvival|TestStoredIDsResolve|TestReadEndpoints|TestResubmitAfterCancelRuns|TestCanonicalBodyFastPath|TestStatusBodiesMatchEncoder|TestSubmitRejectsUnbuildableConfig

serve-smoke:
	@listed="$$($(GO) test -list . ./internal/server/)" || { echo "$$listed"; exit 1; }; \
	missing=""; for name in $$(echo '$(SERVE_SMOKE_TESTS)' | tr '|' ' '); do \
		echo "$$listed" | grep -qx "$$name" || missing="$$missing $$name"; done; \
	if [ -n "$$missing" ]; then echo "serve-smoke: no such test in internal/server:$$missing"; exit 1; fi
	$(GO) test -count 1 -run '^($(SERVE_SMOKE_TESTS))$$' ./internal/server/

# The paper's headline shape as one gate: at 16, 32 and 64 cores with
# superpages, NOCSTAR beats distributed, distributed beats private,
# monolithic loses to private at 32 and 64 cores, and NOCSTAR reaches
# 95% of the zero-interconnect ideal (EXPERIMENTS.md "Headline claims").
shape:
	$(GO) test -count 1 -run 'TestHeadlineClaims' -v ./internal/experiments/

# CPU and heap profiles of the heavyweight Table III sweep, written to
# ./profiles/ for `go tool pprof` (see EXPERIMENTS.md "Allocation-free
# critical path" for the recorded baselines). One iteration: every run is
# memoized for the life of the process, so a second sweep would execute
# nothing and only dilute the profile.
profile:
	mkdir -p profiles
	$(GO) test -run xxx -bench 'BenchmarkTable3$$' -benchtime 1x \
		-cpuprofile profiles/cpu.out -memprofile profiles/mem.out \
		-o profiles/nocstar.test .
	@echo "inspect with: go tool pprof -top profiles/nocstar.test profiles/cpu.out"

ci: build fmt vet staticcheck race bench perfbench alloc check shape smoke serve-smoke

clean:
	$(GO) clean ./...
