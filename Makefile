GO ?= go
GOFMT ?= gofmt

.PHONY: all help build fmt vet staticcheck test race bench bench-engine bench-json bench-json-smoke bench-compare alloc check fuzz smoke serve-smoke serve-cluster-smoke placement profile ci clean

all: build vet test

help:
	@echo "nocstar targets:"
	@echo "  build        compile all packages"
	@echo "  test         run the full test suite"
	@echo "  race         full test suite under the race detector"
	@echo "  bench        short performance smoke benchmarks"
	@echo "  bench-json   record BenchmarkTable3 as BENCH_<yyyymmdd>.json (perf trajectory)"
	@echo "  bench-compare benchstat OLD=<file> NEW=<file> raw bench outputs"
	@echo "  alloc        zero-allocation gates for the translation critical path"
	@echo "  check        invariant-checker gate: shadow-oracle runs + fuzz seed corpora"
	@echo "  fuzz         open-ended randomized checking (grows fuzz corpora)"
	@echo "  smoke        end-to-end report-pipeline smoke run"
	@echo "  serve-smoke  HTTP service smoke: submit/poll/cache/sweep/persistent-store over a loopback listener"
	@echo "  serve-cluster-smoke  three-node membership smoke: exactly-once execution, replication, kill-owner handoff"
	@echo "  placement    fabric/placement gate: topology contract, annealed determinism, placement report matrix"
	@echo "  profile      CPU/heap profiles of the Table III sweep"
	@echo "  ci           build fmt vet staticcheck race bench bench-json-smoke alloc check placement smoke serve-smoke serve-cluster-smoke"

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
# engine event-queue microbenchmarks (watch allocs/op: the typed 4-ary
# heap must stay allocation-free in steady state).
bench:
	$(GO) test -run xxx -bench 'BenchmarkFig12$$|BenchmarkFig16Left$$|BenchmarkFig11c$$' -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkScheduleRun' -benchtime 1s -benchmem ./internal/engine/

bench-engine:
	$(GO) test -run xxx -bench . -benchtime 2s -benchmem ./internal/engine/

# The per-PR performance record: run the canonical heavyweight benchmark
# (the Table III sweep) and write a machine-readable BENCH_<yyyymmdd>.json
# (s/op, B/op, allocs/op, custom metrics, git SHA). The raw text output is
# kept next to it for `make bench-compare`. Run on an otherwise-idle
# machine; commit the JSON so the trajectory is tracked per PR.
BENCHTIME ?= 3x
BENCH_OUT ?= BENCH_$(shell date +%Y%m%d).json
bench-json:
	$(GO) test -run xxx -bench 'BenchmarkTable3$$' -benchtime $(BENCHTIME) -benchmem . \
		| tee $(BENCH_OUT:.json=.txt)
	$(GO) run ./cmd/nocstar-bench -in $(BENCH_OUT:.json=.txt) -out $(BENCH_OUT)

# Cheap ci gate for the recording pipeline: parse a fast real benchmark
# through the tool and require valid JSON out.
bench-json-smoke:
	$(GO) test -run xxx -bench 'BenchmarkFig11c$$' -benchtime 1x -benchmem . \
		| $(GO) run ./cmd/nocstar-bench -in - -out /tmp/nocstar-bench-smoke.json
	@grep -q '"sec_per_op"' /tmp/nocstar-bench-smoke.json

# Compare two raw `go test -bench` outputs (e.g. the .txt files bench-json
# leaves behind) with benchstat. benchstat is fetched on demand — in an
# offline environment the target degrades to a plain diff so the workflow
# still functions.
BENCHSTAT ?= golang.org/x/perf/cmd/benchstat@latest
bench-compare:
	@test -n "$(OLD)" && test -n "$(NEW)" \
		|| { echo "usage: make bench-compare OLD=old.txt NEW=new.txt"; exit 1; }
	@if $(GO) run $(BENCHSTAT) $(OLD) $(NEW); then :; else \
		echo "benchstat unavailable (offline container?), raw diff instead:"; \
		diff -u $(OLD) $(NEW) || true; fi

# The allocation-regression gate: the steady-state translation critical
# path (NoC request/grant round trip, and the full system access path)
# and shootdown delivery must stay at exactly zero heap allocations.
alloc:
	$(GO) test -run 'TestRequestPathAllocFree' -count 1 -v ./internal/noc/
	$(GO) test -run 'TestAccessL2AllocFree|TestDeliverInvalidationsAllocFree' -count 1 -v ./internal/system/

# The invariant-checker gate (internal/check): the checker's own unit and
# circuit-shadow tests, every organization run under the shadow oracle
# (including the legacy-release reintroduction), shootdown bursts
# scrubbing populated arrays, and the fuzz seed corpora of the
# page-table, checked-system, config-decoding, trace-reading and
# burst-invalidation fuzzers. Deterministic — `go test` executes fuzz
# targets over their seeds only.
check:
	$(GO) test -count 1 ./internal/check/
	$(GO) test -count 1 -run 'TestChecked|TestCheckerCatches|TestMonoFullFlush|TestStormContextSwitch|TestBurstScrubsPopulatedArrays|FuzzCheckedSystem|FuzzUnmarshalConfig' ./internal/system/
	$(GO) test -count 1 -run 'TestInvalidateBurst|TestBurstAdd|FuzzInvalidateBurst' ./internal/tlb/
	$(GO) test -count 1 -run 'TestPromote2M|FuzzPageTable' ./internal/vm/
	$(GO) test -count 1 -run 'FuzzTraceRead' ./internal/trace/

# Open-ended randomized checking (not part of ci): grow the fuzz corpora.
fuzz:
	cd internal/vm && $(GO) test -fuzz FuzzPageTable -fuzztime 30s .
	cd internal/system && $(GO) test -fuzz FuzzCheckedSystem -fuzztime 60s -run FuzzCheckedSystem .
	cd internal/system && $(GO) test -fuzz FuzzUnmarshalConfig -fuzztime 30s -run FuzzUnmarshalConfig .
	cd internal/trace && $(GO) test -fuzz FuzzTraceRead -fuzztime 30s -run FuzzTraceRead .
	cd internal/tlb && $(GO) test -fuzz FuzzInvalidateBurst -fuzztime 30s -run FuzzInvalidateBurst .

# End-to-end smoke of the report pipeline: tiny run, JSON document out.
smoke:
	$(GO) run ./cmd/nocstar-exp -quiet -instr 2000 -report /tmp/nocstar-report.json fig12

# End-to-end smoke of the HTTP service: boot against a loopback listener,
# submit a run, poll to completion, verify byte identity with a direct
# in-process Run, resubmit and verify a result-cache hit, stream a sweep
# over SSE, and verify the persistent store survives a server restart.
serve-smoke:
	$(GO) run ./cmd/nocstar-serve -selftest

# Three in-process nodes joined by heartbeat gossip, driven through the
# public typed client: membership converges, a double-submitted config
# executes exactly once cluster-wide, the finished result replicates to
# both HRW successors, and after the owner is hard-killed the survivors
# serve its job ID and hash from replicas and absorb its hash range.
serve-cluster-smoke:
	$(GO) run ./cmd/nocstar-serve -selftest-cluster

# The fabric/placement gate: the Topology interface contract (symmetry,
# zero diagonal), run-to-run determinism of every topology and of every
# optimizing placement (identical mapping and identical Result for a
# fixed seed), cache-key distinctness of the placement knobs, and the
# end-to-end placement report matrix through the nocstar-exp binary.
placement:
	$(GO) test -count 1 -run 'TestTopologyContract|TestTopologyGoldenHops|TestGridForProperty' ./internal/noc/
	$(GO) test -count 1 ./internal/place/
	$(GO) test -count 1 -run 'TestBankNodesWithinCores|TestTopologyDeterminism|TestPlacementDeterminism|TestPlacementKeyDistinctness' ./internal/system/
	$(GO) test -count 1 -run 'TestReportPlacementMatrix' ./cmd/nocstar-exp/

# CPU and heap profiles of the heavyweight Table III sweep, written to
# ./profiles/ for `go tool pprof` (see EXPERIMENTS.md "Allocation-free
# critical path" for the recorded baselines).
profile:
	mkdir -p profiles
	$(GO) test -run xxx -bench 'BenchmarkTable3$$' -benchtime 2x \
		-cpuprofile profiles/cpu.out -memprofile profiles/mem.out \
		-o profiles/nocstar.test .
	@echo "inspect with: go tool pprof -top profiles/nocstar.test profiles/cpu.out"

ci: build fmt vet staticcheck race bench bench-json-smoke alloc check placement smoke serve-smoke serve-cluster-smoke

clean:
	$(GO) clean ./...
