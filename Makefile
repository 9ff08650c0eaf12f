# Local developer entry points, kept in lockstep with .github/workflows/ci.yml
# so a green `make ci` predicts a green CI run.

GO ?= go
BENCH_RE ?= BenchmarkLTF|BenchmarkRLTF|BenchmarkReplan|BenchmarkSim|BenchmarkTimelineReserve|BenchmarkServiceSolveCached|BenchmarkServiceSimulateCached|BenchmarkServiceSolveTraced|BenchmarkTxnRollback|BenchmarkScheduleJSON|BenchmarkLoadJSON|BenchmarkReplanHash
BENCHTIME ?= 5x
COUNT ?= 3

.PHONY: all build fmt vet lint fuzz test test-full cover bench bench-record bench-compare bench-trend baseline serve smoke chaos perfbench-test ci

all: build

build:
	$(GO) build ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint is the full static gate: formatting, go vet, the repo's own
# streamschedlint analyzers (DESIGN.md §9), and — when the network allows
# installing x/tools — the nilness analyzer. CI runs nilness
# unconditionally; offline developers get everything but nilness.
LINTBIN := bin/streamschedlint
lint: fmt vet
	$(GO) build -o $(LINTBIN) ./cmd/streamschedlint
	$(GO) vet -vettool=$(LINTBIN) ./...
	@if $(GO) run golang.org/x/tools/go/analysis/passes/nilness/cmd/nilness@latest ./... 2>/dev/null; then \
		echo "nilness: ok"; \
	else \
		echo "nilness: skipped (x/tools unavailable offline; CI runs it)"; \
	fi

# fuzz replays the committed seed corpora, then gives each native fuzz
# target a short exploration budget. Same step CI runs. Every -fuzz
# pattern is anchored: go test -fuzz refuses a pattern matching two targets.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run Fuzz . ./internal/service/ ./internal/schedule/
	$(GO) test -run '^$$' -fuzz '^FuzzSolve$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalProblemHash$$' -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzReplanHandler$$' -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzScheduleJSON$$' -fuzztime $(FUZZTIME) ./internal/schedule/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadJSON$$' -fuzztime $(FUZZTIME) ./internal/schedule/

# test mirrors the CI test job (race + short). test-full runs the slow
# experiment sweeps too.
test:
	$(GO) test -race -short ./...

test-full:
	$(GO) test ./...

cover:
	$(GO) test -short -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -20

# bench streams the raw suite without recording.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -benchtime $(BENCHTIME) .

# bench-record runs the pinned configuration and writes BENCH_<rev>.json.
bench-record:
	$(GO) run ./cmd/bench -bench '$(BENCH_RE)' -benchtime $(BENCHTIME) -count $(COUNT)

# bench-compare is exactly the CI bench gate: red on >25% ns/op, >10%
# allocs/op, >10% wakes/op or any change (a rise or a fall) in events/op or
# in the solver's trials/op, pruned/op, placements/op, rollbacks/op and
# fallbacks/op vs the committed baseline.
bench-compare:
	$(GO) run ./cmd/bench -bench '$(BENCH_RE)' -benchtime $(BENCHTIME) -count $(COUNT) \
		-baseline BENCH_baseline.json -alloc-tolerance 0.10 \
		-metric-tolerance wakes/op=0.10 -metric-tolerance events/op=0 \
		-metric-tolerance trials/op=0 -metric-tolerance pruned/op=0 \
		-metric-tolerance placements/op=0 \
		-metric-tolerance rollbacks/op=0 -metric-tolerance fallbacks/op=0 -out BENCH_ci.json

# bench-trend prints the per-benchmark ns/op and allocs/op trajectory over
# the recorded artifacts (BENCH_*.json under BENCH_DIR) with per-step deltas.
BENCH_DIR ?= .
bench-trend:
	$(GO) run ./cmd/bench trend -dir $(BENCH_DIR)

# baseline refreshes the committed baseline — run on CI-class hardware and
# commit the result deliberately (see DESIGN.md §Performance).
baseline:
	$(GO) run ./cmd/bench -bench '$(BENCH_RE)' -benchtime $(BENCHTIME) -count $(COUNT) \
		-out BENCH_baseline.json

# serve runs the scheduling service daemon locally (DESIGN.md §8).
SERVE_ADDR ?= :8080
serve:
	$(GO) run ./cmd/streamschedd -addr $(SERVE_ADDR)

# smoke starts a daemon and walks the 200/409/429 service contract; it is
# the same script the ci.yml service-smoke job runs.
smoke:
	bash scripts/service-smoke.sh

# chaos is the crash-tolerance gate (DESIGN.md §11): the fault-injection
# and drain tests under the race detector — including the kill -9
# warm-restart e2e, which -short skips — plus the chaos smoke against a
# real daemon. Same steps as the ci.yml chaos job.
chaos:
	$(GO) test -race -run 'TestChaos|TestInjected|TestBatchFollower|TestDrainUnderLoad|TestReadyz|TestFaultSite|TestSnapshot' ./internal/service/
	bash scripts/service-smoke.sh --chaos

# perfbench-test vets and self-tests the end-to-end benchmark. perfbench/
# is a nested module, so the root ./... never compiles it, yet it imports
# the service surface directly. Same step as the ci.yml perfbench job.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: build lint test smoke chaos perfbench-test bench-compare
