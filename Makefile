GO ?= go

.PHONY: all build vet test race bench-smoke bench-snapshot bench-module fuzz-smoke serve-smoke server-race mon-smoke cluster-race cluster-smoke lint gauntlet gauntlet-check check clean

all: check

build:
	$(GO) build ./...

# go vet plus a formatting gate: any file gofmt would rewrite fails it.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "vet: gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

# Race-enabled run; covers the obs atomic counters from every
# morsel-parallel scan test and the cross-codec differential harness
# (difftest_test.go). -short skips the timing-sensitive overhead-guard
# assertions that are meaningless under the race detector's slowdown
# and caps the differential harness's seed count.
race:
	$(GO) test -race -short ./...

# One iteration of every benchmark: catches bit-rot in bench code
# (including BenchmarkEncodeObsOff/On) without burning CI minutes.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The benchmark harness is its own Go module (benchmark/go.mod, with a
# replace of the root module), so `go test ./...` at the root never
# compiles it. This vets and tests it against the engine, format and
# client APIs of this checkout (~12 s, offline).
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -count=1 ./...

# The dated core-throughput snapshot: encode/decode/filter MV/s over
# three dataset shapes, plus the served_scan selectivity sweep
# (in-process vs compressed ALPS wire vs raw float64s over loopback
# HTTP), written to BENCH_core.json. Non-gating — CI uploads it as an
# artifact so performance drift is a diff, not a build break.
bench-snapshot:
	$(GO) run ./cmd/alpbench -snapshot BENCH_core.json
	@cat BENCH_core.json

# Short coverage-guided fuzzing runs on top of the checked-in seed
# corpora (testdata/fuzz/): round-trip losslessness on arbitrary bit
# patterns, no-panic + ErrCorrupt on mutated streams, differential
# pushdown-vs-naive filtered aggregates under fuzzed predicates, and
# the scan-stream frame decoder (length/CRC/bitmap-cardinality lies).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEncodeDecodeRoundTrip -fuzztime 13s .
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime 13s .
	$(GO) test -run '^$$' -fuzz FuzzPushdownAgainstNaive -fuzztime 13s .
	$(GO) test -run '^$$' -fuzz FuzzScanFrameDecode -fuzztime 13s .

# End-to-end smoke of the column service: build the real alpserved
# binary, boot it on an ephemeral port, run an ingest -> scan -> agg
# round-trip through the typed client (agg checked bit-identical to
# the in-process engine), then SIGTERM and verify the graceful drain.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 -v ./cmd/alpserved

# End-to-end smoke of the self-telemetry history: boot alpserved with a
# 10ms scrape interval and a small window so sealing happens within the
# run, drive traffic, range-query /v1/metrics/history through the typed
# client asserting non-empty bit-identical results across repeated
# reads, then verify the shutdown ALPM snapshot round-trips through
# `alpfile metrics`.
mon-smoke:
	$(GO) test -run TestMonSmoke -count=1 -v ./cmd/alpserved

# End-to-end smoke of the cluster: build the real alpserved and
# alpclusterd binaries, boot two backends and a coordinator on
# ephemeral ports, run ingest -> agg (bit-identical to the in-process
# engine) -> scan through the typed client, check the coordinator
# echoes a request ID, then SIGTERM it and verify the graceful drain.
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count=1 -v ./cmd/alpclusterd

# Static analysis beyond vet: staticcheck and govulncheck when the
# tools are installed, skipped with a notice otherwise (the CI lint job
# installs them; local runs shouldn't fail on a missing binary).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# The server integration tests (shedding, drain, retry, end-to-end
# bit-identity, and the served-scan differential battery with its
# selectivity sweep × edge datasets) under the race detector — the
# service is the most concurrent code in the repo. internal/gauntlet
# rides along for its per-domain encode → serve → ALPS scan smoke.
server-race:
	$(GO) test -race -count=1 ./internal/server ./client ./cmd/alpserved ./internal/gauntlet

# The alpcluster scatter-gather coordinator under the race detector:
# the clustered-vs-in-process differential battery (1/2/4 loopback
# backends × predicate sweep × edge datasets, agg/count/scan/data all
# bit-identical), the fault-injection tests (killed backend ⇒ typed
# partial_unavailable, hung backend ⇒ failover with replicas), the
# rebalance path and the pool's breaker/backoff unit tests. Gating in
# CI — the coordinator is all concurrency.
cluster-race:
	$(GO) test -race -count=1 ./internal/cluster ./client

# The cross-domain gauntlet: all 9 codecs × 5 workload domains (HPC,
# time series, observability, db, ML weights), measuring compression
# ratio plus compress/decompress/filter throughput per (domain,
# dataset, codec) and one served ALPS scan per domain, with median-of-5
# noise control. Writes the dated, schema-versioned BENCH_gauntlet.json
# baseline and prints the per-domain winners table.
gauntlet:
	$(GO) run ./cmd/alpgauntlet -o BENCH_gauntlet.json -table

# The regression gate every perf PR must pass: re-measures the gauntlet
# and fails with a per-metric diff on >10% throughput drop (plus the
# documented noise bound, capped at 25%) or >2% compression-ratio
# growth against the committed baseline. Flagged cells are re-measured
# (best-of) before the gate fails, so scheduling jitter on a busy box
# doesn't masquerade as a regression. Refresh the baseline with
# `make gauntlet` only when a change is *supposed* to move the numbers,
# and say so in the PR.
gauntlet-check:
	$(GO) run ./cmd/alpgauntlet -check BENCH_gauntlet.json

# The full PR gate, mirrored by .github/workflows/ci.yml.
check: vet build test race bench-smoke bench-module serve-smoke mon-smoke server-race cluster-race cluster-smoke fuzz-smoke

clean:
	$(GO) clean ./...
