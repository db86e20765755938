GO ?= go

.PHONY: all build lint vet test race test-faults test-campaign test-difftest test-higher test-hotgbench fuzz-smoke bench bench-smoke bench-json bench-diff tables verify

all: build lint vet test

build:
	$(GO) build ./...

# lint fails if any file is not gofmt-clean (printing the offenders), or if
# any package lacks a package comment, or if any exported symbol in the public
# facade (the root package, api.go) lacks godoc. See cmd/doclint.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	$(GO) run ./cmd/doclint .

vet:
	$(GO) vet ./...

test: build
	$(GO) test -timeout 10m ./...

# The parallel search coordinator, sample-store overlays, and proof fan-out
# are exercised under the race detector; this is part of the verified path.
race:
	$(GO) test -race -timeout 10m ./...

# Fault-injection drills (internal/faults): forced prover panics, solver
# timeouts, and executor crashes must be contained and accounted, under the
# race detector. See DESIGN.md §8.
test-faults:
	$(GO) test -race -timeout 10m -run 'Injected|Fault|Budget|Degrade|Cancel|Timeout' ./internal/search/ ./internal/faults/...

# Campaign persistence drills: kill-and-resume determinism (resumed searches
# must be bit-identical to uninterrupted ones at any worker count), corpus
# integrity, the session lifecycle, and cross-session triage dedup, under the
# race detector; then twenty shuffled passes of the cmd/hotg, cmd/difftest and
# internal/obshttp suites (the CLIs and the live introspection they serve), so
# no such test depends on ordering or a wall-clock race. See DESIGN.md §9.
test-campaign:
	$(GO) test -race -timeout 15m -run 'Checkpoint|Resume|Snapshot|Campaign' ./internal/search/ ./internal/campaign/ ./cmd/hotg/
	$(GO) test -race -count=20 -shuffle=on -timeout 15m ./cmd/hotg/ ./cmd/difftest/ ./internal/obshttp/

# Differential-oracle pass: the deterministic seeded O1–O3 suite (prover
# verdicts vs exhaustive enumeration, cross-technique replay, metamorphic
# relations) plus the committed regression corpus, under the race detector.
# See DESIGN.md §10.
test-difftest:
	$(GO) test -race -timeout 15m ./internal/difftest/ ./cmd/difftest/

# Higher-order drills under the race detector: function-value synthesis and
# replay across the whole stack — mini round trips, randprog determinism,
# callback workload searches, the 1000-seed replay property, kill-and-resume
# with decision tables, and the cmd/hotg golden rendering. See DESIGN.md §15.
test-higher:
	$(GO) test -race -timeout 15m -short -run 'Callback|FuncVal|FuncValue|FuncParams|HigherOrder' ./internal/mini/ ./internal/sym/ ./internal/search/ ./internal/concolic/ ./internal/difftest/ ./cmd/hotg/

# The benchmark's self-check: hotgbench is a module of its own, so `go test
# ./...` never reaches it. Its tests run one cycle of each workload, which must
# reproduce the canonical digests committed in hotgbench/reference.json and
# print every metric BENCHMARK.json names. See hotgbench/README.md.
test-hotgbench:
	cd hotgbench && $(GO) test .

# Short native-fuzz smoke: each entry point gets a few seconds from its seed
# corpus. `go test -fuzz` accepts one target per invocation, hence the list.
fuzz-smoke:
	$(GO) test ./internal/mini/ -run '^$$' -fuzz 'FuzzParser$$' -fuzztime 10s
	$(GO) test ./internal/mini/ -run '^$$' -fuzz 'FuzzLexRoundTrip$$' -fuzztime 5s
	$(GO) test ./internal/mini/ -run '^$$' -fuzz 'FuzzFunctionValueRoundTrip$$' -fuzztime 5s
	$(GO) test ./internal/smt/ -run '^$$' -fuzz 'FuzzSolveConjunction$$' -fuzztime 10s
	$(GO) test ./internal/smt/ -run '^$$' -fuzz 'FuzzIncrementalSolve$$' -fuzztime 10s

bench:
	$(GO) test -bench . -benchtime 1x

# bench-smoke compiles and runs the incremental-solver benchmark family once
# per benchmark, so the session workload shape (shared prefix, sibling
# targets, warm refutation) cannot bit-rot between full benchmark runs; and
# likewise the checkpoint save/load benchmarks (lexer snapshot at run 270,
# reporting bytes per checkpoint).
bench-smoke:
	$(GO) test ./internal/smt/ -run '^$$' -bench SolveIncremental -benchtime 1x
	$(GO) test ./internal/campaign/ -run '^$$' -bench 'SaveCheckpoint|LoadCheckpoint' -benchtime 1x

# bench-json captures the quick experiment suite with per-experiment metric
# snapshots (workers, proof-cache traffic, wall/solve seconds, full registry).
bench-json:
	$(GO) run ./cmd/benchtab -quick -json > BENCH_search.json

# bench-diff is the perf-regression gate: a fresh quick run compared against
# the committed baseline, failing on >25% solver-time regression in any
# experiment (with an absolute noise floor for sub-measurable deltas; see
# `benchtab -diff -h`). Regenerate the baseline with `make bench-json` when a
# slowdown is intentional.
bench-diff:
	$(GO) run ./cmd/benchtab -quick -json > BENCH_new.json
	$(GO) run ./cmd/benchtab -diff -threshold 0.25 -min-seconds 0.25 BENCH_search.json BENCH_new.json

tables:
	$(GO) run ./cmd/benchtab -quick

verify: lint vet test race test-faults test-campaign test-difftest test-higher test-hotgbench
