GO ?= go

.PHONY: ci build vet test race fmt-check bench bench-ab lint bench-build fuzz-smoke loc

# Each test runs once: one uncached race run over the whole module, the
# static-analysis gate, a few seconds of each native fuzz target, and a
# build + short test of the benchmark module (its own go.mod, so ./...
# does not reach it).
ci: fmt-check lint build race fuzz-smoke bench-build

# The static-analysis gate: go vet plus the repository's own analyzer
# suite (immutable, errwrap, ctxloop, obssafe, and the CFG dataflow trio
# locksafe/leakcheck/snapshotescape — see docs/analysis.md).
# The suite has no suppression mechanism; the tree must be clean modulo
# the committed baseline (currently empty), and the whole run must stay
# inside a 60s wall-clock budget so `make ci` stays fast.
lint: vet
	@start=$$(date +%s); \
	$(GO) run ./cmd/lb-lint -baseline lint-baseline.json ./... || exit 1; \
	end=$$(date +%s); elapsed=$$((end - start)); \
	echo "lint: analyzer suite took $${elapsed}s (budget 60s)"; \
	if [ $$elapsed -ge 60 ]; then \
		echo "lint: exceeded the 60s wall-clock budget; profile with 'go run ./cmd/lb-lint -list -v'"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# -count=1: the race detector only sees schedules it executes, so cached
# passes are worthless. This one run covers every suite — the
# differential and repair harnesses, crash-recovery and failover property
# tests, the HTTP, streaming and replication end-to-end suites, and the
# load-harness smoke.
race:
	$(GO) test -race -count=1 ./...

# The race run above already replays every fuzz target's seed corpus; this
# mutates each for 5 s on top (-fuzz takes one target in one package per
# invocation). A crasher is written to the package's testdata/fuzz/ —
# commit it with the fix.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=5s ./internal/parser
	$(GO) test -run='^$$' -fuzz='^FuzzDecodePageToken$$' -fuzztime=5s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzJSONBody$$' -fuzztime=5s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzReadJournal$$' -fuzztime=5s ./internal/durable
	$(GO) test -run='^$$' -fuzz='^FuzzTailReader$$' -fuzztime=5s ./internal/durable
	$(GO) test -run='^$$' -fuzz='^FuzzUnframeSnapshot$$' -fuzztime=5s ./internal/durable

# benchmark/ compiles against internal packages; a refactor that breaks
# its imports must fail here rather than in the benchmark run.
bench-build:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark -short ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchmem ./...

# A/B end-to-end benchmark of the working tree against revision BASE:
# for each workload in WL (a space-separated list), PAIRS pairs of
# `--seconds 12` runs (seed SEED), the side that runs first alternating
# pair by pair, each result line wrapped into a report -compare reads, then
# one -compare per workload. BASE is extracted under .bench_build/ab/ and
# removed on exit; the reports stay in .bench_build/ab/<workload>/{base,head}/.
#   make bench-ab BASE=HEAD~1 WL="tx-write workbook" PAIRS=10
BASE ?= HEAD
WL ?= tx-write
PAIRS ?= 10
SEED ?= 1
AB := $(CURDIR)/.bench_build/ab
bench-ab:
	@set -e; rm -rf $(AB); mkdir -p $(AB)/src; \
	trap 'rm -rf $(AB)/src' EXIT; \
	git archive $(BASE) | tar -x -C $(AB)/src; \
	run() { \
		echo "bench-ab: $$wl seed $(SEED) on $$1 → $$2" >&2; \
		$(GO) run -C $$1/benchmark . --workload $$wl --seed $(SEED) --seconds 12 2>>$(AB)/log | tail -n 1 | \
			jq -c --arg wl $$wl '{workloads:[{workload:$$wl,end_to_end:.metrics}]}' > $$2; \
	}; \
	for wl in $(WL); do \
		mkdir -p $(AB)/$$wl/base $(AB)/$$wl/head; \
		for i in $$(seq 1 $(PAIRS)); do \
			if [ $$((i % 2)) = 1 ]; then \
				run $(AB)/src $(AB)/$$wl/base/report-$$i.json; run $(CURDIR) $(AB)/$$wl/head/report-$$i.json; \
			else \
				run $(CURDIR) $(AB)/$$wl/head/report-$$i.json; run $(AB)/src $(AB)/$$wl/base/report-$$i.json; \
			fi; \
		done; \
	done; \
	for wl in $(WL); do \
		echo "bench-ab: $$wl"; \
		$(GO) run -C benchmark . -compare $(AB)/$$wl/base $(AB)/$$wl/head; \
	done

# The number a simplicity PR's acceptance quotes: non-test Go lines outside
# benchmark/ and testdata/.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '/testdata/' | xargs cat | wc -l
