GO ?= go

# staticcheck is version-pinned so `make lint` (and therefore `make
# check`) runs the exact binary CI runs — a lint disagreement between a
# laptop and a runner is always a version skew bug. `go run` fetches it
# on first use and caches it in the module cache.
STATICCHECK_VERSION ?= 2024.1.1

# The workload slice the bench gate measures: small enough for CI, wide
# enough to cover every cascade stage.
BENCH_ROWS    = sock,ctrace,autofs,raid,mt_daapd
BENCH_SCALE   = 0.12
BENCHTAB_ARGS = -rows $(BENCH_ROWS) -scale $(BENCH_SCALE) -cache-dir .benchcache

# The serve bench boots a chaos-enabled aliasd on a synthetic workload
# and drives it with aliasload (cold, warm, then chaos: 20% injected
# faults + a live reload mid-burst). -assert fails on any 5xx, counter
# drift, or a warm-phase shed.
SERVE_ADDR  = 127.0.0.1:7411
SERVE_BENCH = sock

# Timed phase of each repository-benchmark run, in seconds.
BENCHMARK_SECONDS ?= 15

.PHONY: all build test race vet fmt staticcheck lint check benchmark benchmark-selftest bench-fresh bench bench-baseline serve-bench checker-bench checker-baseline incremental-bench incremental-baseline examples

all: check

build:
	$(GO) build ./...

# vet covers both modules: the root module and the repository
# benchmark's own module under benchmark/.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# lint is CI's lint job: formatting, vet and the pinned staticcheck.
lint: fmt vet staticcheck

# check is what CI runs: lint, build, and the full suite under the race
# detector.
check: lint build race

# benchmark runs the repository benchmark (benchmark/, declared in
# BENCHMARK.json) once per workload at seed 1, untraced. Each run prints
# its metrics as one JSON line and exits nonzero when an answer check
# on the real workload fails.
benchmark:
	bash benchmark/run.sh --workload cold_batch --seed 1 --seconds $(BENCHMARK_SECONDS) --trace 0
	bash benchmark/run.sh --workload served_mixed --seed 1 --seconds $(BENCHMARK_SECONDS) --trace 0

# benchmark-selftest runs the repository benchmark's own tests (its own
# Go module under benchmark/, outside `go test ./...`): every workload
# on a tiny program, untraced and traced, with each check path fed a
# deliberately wrong answer. About 50 s; needs no network.
benchmark-selftest:
	cd benchmark && $(GO) test ./...

# bench-fresh smoke-runs every benchmark once (catching bit-rot without
# the cost of real measurement) and measures the FSCS perf report into
# BENCH_fresh.json. benchtab runs twice against the same cache
# directory: the first run is cold (cache_hit_rate 0.0) and populates
# it, the second must start fully warm (cache_hit_rate 1.0).
bench-fresh:
	$(GO) test -run '^$$' -bench . -benchtime=1x -count=1 -benchmem ./...
	rm -rf .benchcache
	$(GO) run ./cmd/benchtab $(BENCHTAB_ARGS) -fscs-json BENCH_fresh.json
	$(GO) run ./cmd/benchtab $(BENCHTAB_ARGS) -fscs-json BENCH_fresh.json

# bench gates the fresh report against the committed BENCH_fscs.json:
# the second run must be fully warm, no deterministic work counter of a
# cold Workers=1 analysis may grow, its allocation counts may grow by
# at most 5%, and both reports must come from the same Go minor
# release. Wall-clock columns are reported, not gated.
bench: bench-fresh
	$(GO) run ./cmd/benchtab -assert -baseline BENCH_fscs.json -fresh BENCH_fresh.json

# bench-baseline re-measures and promotes the fresh report to the
# committed baseline without gating it — run it (and commit the result)
# when a PR changes the work or allocation counts on purpose, or moves
# to a new Go minor release (CI's bench job pins the release the
# baseline was taken with).
bench-baseline: bench-fresh
	mv BENCH_fresh.json BENCH_fscs.json

# checker-bench is CI's static-analysis gate: every lockheavy preset
# runs every registered pass cold then warm, and the fresh report is
# asserted for full seeded-bug recall, zero cold/warm findings drift, a
# fully-cached warm rerun, and per-rule findings counts equal to the
# committed BENCH_check.json.
checker-bench:
	$(GO) run ./cmd/benchtab -check -assert -baseline BENCH_check.json

# checker-baseline re-measures and commits the checker baseline — run
# it when a PR changes what the passes find on purpose.
checker-baseline:
	$(GO) run ./cmd/benchtab -check -check-json BENCH_check.json

# incremental-bench is CI's streaming-mode gate: a deterministic storm
# of single-statement edits per workload through core.ApplyEdit, with
# every edit timed edit-to-answer and every Nth edited program
# differentially checked against a from-scratch analysis. The fresh
# report is asserted for the p50 latency budget, the dirty-cluster
# reuse floor, zero fallbacks, identity, and workload-set equality with
# the committed BENCH_incremental.json.
incremental-bench:
	$(GO) run ./cmd/benchtab -incremental -scale $(BENCH_SCALE) -incr-json BENCH_incr_fresh.json -assert -baseline BENCH_incremental.json

# incremental-baseline re-measures and commits the incremental baseline
# — run it when a PR changes the edit path's shape on purpose.
incremental-baseline:
	$(GO) run ./cmd/benchtab -incremental -scale $(BENCH_SCALE) -incr-json BENCH_incremental.json

# examples builds and runs every examples/ binary — the consumer-facing
# API smoke test. Each example must exit 0.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
	done

# serve-bench measures (and refreshes) BENCH_serve.json: boot the
# daemon in the background, let aliasload wait for /readyz, run the
# three phases, then drain the daemon with SIGTERM. The daemon's exit
# status is checked too — a crash under chaos fails the target even if
# the driver's invariants all passed.
serve-bench:
	$(GO) build -o .bin/aliasd ./cmd/aliasd
	$(GO) build -o .bin/aliasload ./cmd/aliasload
	@./.bin/aliasd -addr $(SERVE_ADDR) -synth $(SERVE_BENCH) -synth-scale $(BENCH_SCALE) -chaos & \
	pid=$$!; status=0; \
	./.bin/aliasload -addr $(SERVE_ADDR) -phases cold,warm,chaos -assert -out BENCH_serve.json || status=$$?; \
	kill -TERM $$pid 2>/dev/null; \
	wait $$pid || status=$$?; \
	exit $$status
