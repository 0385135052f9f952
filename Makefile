# Developer entry points. CI (.github/workflows/ci.yml) runs exactly
# these targets, so `make verify` locally reproduces the full gate.

GO ?= go

# Fuzz smoke duration per target (CI uses the default; raise locally for
# real fuzzing sessions, e.g. `make fuzz FUZZTIME=10m`).
FUZZTIME ?= 30s

# Worker-pool size for results-quick (0 = GOMAXPROCS).
JOBS ?= 0

.PHONY: all build test race rerun lint lint-json lint-baseline vet perfbench-check selfcheck fuzz bench bench-quick bench-ab results-quick results-cached serve-smoke verify clean

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## test: tier-1 test suite
test:
	$(GO) test -shuffle=on ./...

## race: full suite under the race detector
race:
	$(GO) test -race -shuffle=on ./...

## rerun: run the packages that keep process-wide state (the link
## registry, the workload block cache and spill memo) twice
## in one process, so a test that only passes on a fresh process fails
rerun:
	$(GO) test -count=2 ./internal/link/... ./internal/baseline/... ./internal/schemes/... ./internal/workload/... ./internal/cpusim/...

## lint: the desclint analyzer suite (aliasretain, atomicsafe, ctxcancel,
## determinism, errprefix, exhaustive, floateq, hotalloc, unitsuffix) plus
## the standard go vet suite. Findings recorded in lint-baseline.json are
## tolerated while they are burned down; new findings fail.
lint:
	$(GO) run ./cmd/desclint -baseline lint-baseline.json ./...

## lint-json: lint with machine-readable diagnostics written to lint.json
## (CI uploads it as an artifact on every run, pass or fail)
lint-json:
	$(GO) run ./cmd/desclint -baseline lint-baseline.json -json ./... > lint.json

## lint-baseline: re-record lint-baseline.json from the current tree.
## Use when a new pass lands with pre-existing findings that are tracked
## for burn-down rather than fixed in the same change.
lint-baseline:
	$(GO) run ./cmd/desclint -novet -write-baseline lint-baseline.json ./...

## vet: go vet alone (lint already includes it)
vet:
	$(GO) vet ./...

## perfbench-check: vet and test the nested perfbench module, which
## `go build ./...` skips although it compiles against internal/exp and
## the public desc API
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## selfcheck: descverify, the paper's golden vectors, the DESC hardware
## model against the analytic codec, every scheme's round trip and the
## SECDED interleaving under injected wire errors (under a second)
selfcheck:
	$(GO) run ./cmd/descverify

## fuzz: 30-second smoke per fuzz target, seeded from testdata/fuzz
fuzz:
	$(GO) test -fuzz=FuzzChannelRoundTrip   -fuzztime=$(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzCountPosInverse    -fuzztime=$(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzLaneMaxVsScalar    -fuzztime=$(FUZZTIME) -run '^$$' ./internal/bitutil
	$(GO) test -fuzz=FuzzSchemesDecode      -fuzztime=$(FUZZTIME) -run '^$$' ./internal/baseline
	$(GO) test -fuzz=FuzzSECDEDSingleError  -fuzztime=$(FUZZTIME) -run '^$$' ./internal/ecc
	$(GO) test -fuzz=FuzzInterleaverWireError -fuzztime=$(FUZZTIME) -run '^$$' ./internal/ecc
	$(GO) test -fuzz=FuzzCodecVsReference   -fuzztime=$(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzCodecVsTxRx        -fuzztime=$(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzBaselineVsReference -fuzztime=$(FUZZTIME) -run '^$$' ./internal/baseline
	$(GO) test -fuzz=FuzzFPFDecode          -fuzztime=$(FUZZTIME) -run '^$$' ./internal/schemes/fpf
	$(GO) test -fuzz=FuzzLWCDecode          -fuzztime=$(FUZZTIME) -run '^$$' ./internal/schemes/lwc
	$(GO) test -fuzz=FuzzFPFVsReference     -fuzztime=$(FUZZTIME) -run '^$$' ./internal/schemes/fpf
	$(GO) test -fuzz=FuzzLWCVsReference     -fuzztime=$(FUZZTIME) -run '^$$' ./internal/schemes/lwc
	$(GO) test -fuzz=FuzzEncodeVsReference  -fuzztime=$(FUZZTIME) -run '^$$' ./internal/schemes/lowweight
	$(GO) test -fuzz=FuzzServeEncodeRequest -fuzztime=$(FUZZTIME) -run '^$$' ./internal/serve
	$(GO) test -fuzz=FuzzBankSchedVsReference -fuzztime=$(FUZZTIME) -run '^$$' ./internal/cachesim
	$(GO) test -fuzz=FuzzSimulateSpec       -fuzztime=$(FUZZTIME) -run '^$$' ./internal/exp
	$(GO) test -fuzz=FuzzDecodeResult       -fuzztime=$(FUZZTIME) -run '^$$' ./internal/exp
	$(GO) test -fuzz=FuzzTraceReader        -fuzztime=$(FUZZTIME) -run '^$$' ./internal/trace
	$(GO) test -fuzz=FuzzGetSet             -fuzztime=$(FUZZTIME) -run '^$$' ./internal/runcache

## bench: repository benchmarks (reduced-scale experiment sweeps)
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

## bench-quick: the Send hot-path, per-experiment figure (fresh runner,
## sims/op), runner cold/warm-disk-cache, simulator set-up, simulator
## throughput, hierarchy per-access (ns/access) and DESC lane-max fold
## (MaxNibble/MaxByte at 2- and 8-word rounds) benchmarks with
## allocation counts, written to bench-quick.txt (CI uploads it as an
## artifact so every PR carries a ns/op and allocs/op record)
bench-quick:
	$(GO) test -run '^$$' -bench 'Send|Recv|Fig|RunnerExecute|Setup|SimulatorThroughput|HierarchyAccess|MaxNibble|MaxByte' -benchtime 100ms -benchmem . ./internal/cachesim ./internal/bitutil | tee bench-quick.txt

## bench-ab: isolated A/B of go test benchmarks: builds the test binary
## of BASE (a git revision, exported into the ignored .bench_build/) and
## of the working tree, alternates them RUNS times and prints each
## benchmark's medians, quartiles and win count, e.g.
## `make bench-ab BASE=HEAD~1 BENCH=SendDESC RUNS=10` (PKG=./internal/bitutil
## for the lane-max folds; BENCHTIME per run, default 300ms)
bench-ab: RUNS ?= 10
bench-ab: PKG ?= .
bench-ab: BENCHTIME ?= 300ms
bench-ab:
	@if [ -z "$(BASE)" ] || [ -z "$(BENCH)" ]; then \
		echo "usage: make bench-ab BASE=<rev> BENCH=<regex> [RUNS=10] [PKG=.] [BENCHTIME=300ms]" >&2; exit 2; fi
	bash scripts/bench-ab.sh '$(BASE)' '$(BENCH)' $(RUNS) $(PKG) $(BENCHTIME)

## results-quick: regenerate the quick result set on the parallel runner,
## emitting the JSON run report alongside it (tune with JOBS=N; pin the
## output directory with OUT=dir, e.g. for CI artifact upload)
results-quick: OUT ?= $(shell mktemp -d)
results-quick:
	@start=$$(date +%s) && \
	$(GO) run ./cmd/descbench -quick -jobs $(JOBS) -out $(OUT) -metrics $(OUT)/run-report.json && \
	echo "results-quick: wall-clock $$(( $$(date +%s) - start ))s, results in $(OUT)"

## results-cached: prove the disk result cache and shard/merge pipeline
## (DESIGN.md §16) end to end on two quick figures: (1) run descbench
## twice against one cache dir — the rerun must report 100% hits (zero
## misses, at least one hit), serve its plan from one run set and emit a
## byte-identical results dir;
## (2) split the same plan across two share-nothing shard cache dirs,
## merge them, and render — again 100% hits and byte-identical output.
## Artifacts: cache-stats-{cold,warm,merged}.json under $(OUT).
results-cached: FIGS ?= fig16,fig20
results-cached: OUT ?= $(shell mktemp -d)
results-cached:
	$(GO) run ./cmd/descbench -quick -only $(FIGS) -jobs $(JOBS) \
		-cache-dir $(OUT)/cache -out $(OUT)/run1 -cache-stats $(OUT)/cache-stats-cold.json
	$(GO) run ./cmd/descbench -quick -only $(FIGS) -jobs $(JOBS) \
		-cache-dir $(OUT)/cache -out $(OUT)/run2 -cache-stats $(OUT)/cache-stats-warm.json
	grep -q '"misses": 0' $(OUT)/cache-stats-warm.json
	! grep -q '"hits": 0,' $(OUT)/cache-stats-warm.json
	grep -q '"set_hits": 1,' $(OUT)/cache-stats-warm.json
	diff -r $(OUT)/run1 $(OUT)/run2
	$(GO) run ./cmd/descbench -quick -only $(FIGS) -jobs $(JOBS) -shard 1/2 -cache-dir $(OUT)/shard1
	$(GO) run ./cmd/descbench -quick -only $(FIGS) -jobs $(JOBS) -shard 2/2 -cache-dir $(OUT)/shard2
	$(GO) run ./cmd/descbench -quick -only $(FIGS) -jobs $(JOBS) \
		-cache-dir $(OUT)/merged -merge $(OUT)/shard1,$(OUT)/shard2 \
		-out $(OUT)/run-merged -cache-stats $(OUT)/cache-stats-merged.json
	grep -q '"misses": 0' $(OUT)/cache-stats-merged.json
	diff -r $(OUT)/run1 $(OUT)/run-merged
	@echo "results-cached: OK (100% warm hits, shard/merge byte-identical) in $(OUT)"

## serve-smoke: start the descserve daemon, sustain binary encode
## traffic against it for ~5s with the descload client, scrape /metrics,
## and gate on >= 1M blocks/sec sustained (8-bit desc-zero) plus zero
## steady-state allocations in the encode hot path. Artifacts:
## serve-load.json (throughput report) and serve-metrics.json (the
## daemon's final instrument snapshot).
serve-smoke:
	$(GO) build -o descserve.bin ./cmd/descserve
	$(GO) build -o descload.bin ./cmd/descload
	@rm -f serve.addr
	@./descserve.bin -addr 127.0.0.1:0 -addr-file serve.addr & pid=$$!; \
	for i in $$(seq 1 50); do [ -s serve.addr ] && break; sleep 0.1; done; \
	[ -s serve.addr ] || { echo "serve-smoke: daemon never bound"; kill $$pid; exit 1; }; \
	./descload.bin -addr "$$(cat serve.addr)" -chunk 8 -batch 2048 -duration 5s \
		-report serve-load.json -metrics-out serve-metrics.json \
		-min-blocks-per-sec 1000000; rc=$$?; \
	kill -TERM $$pid; wait $$pid; \
	rm -f descserve.bin descload.bin serve.addr; \
	exit $$rc
	$(GO) test -run TestEncodeHotPathZeroAlloc -count=1 ./internal/serve

## verify: everything CI gates a PR on
verify: build lint test race rerun perfbench-check selfcheck
	@echo "verify: OK"

clean:
	$(GO) clean ./...
