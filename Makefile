GO ?= go

.PHONY: ci build vet test race fmt-check bench lint bench-build fuzz-smoke loc

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
	$(GO) test -run='^$$' -fuzz='^FuzzReadJournal$$' -fuzztime=5s ./internal/durable
	$(GO) test -run='^$$' -fuzz='^FuzzTailReader$$' -fuzztime=5s ./internal/durable

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

# The number a simplicity PR's acceptance quotes: non-test Go lines outside
# benchmark/ and testdata/.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '/testdata/' | xargs cat | wc -l
