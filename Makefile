# Build, test, and benchmark entry points. `make verify` is the tier-1
# gate (see ROADMAP.md); `make test-race` must also stay green since
# the batch-mining engine runs annotation, CRF training, and K-Means on
# worker pools.

GO ?= go

.PHONY: build vet fmt test test-race verify lint staticcheck bench bench-parallel bench-smoke bench-tiers profile tables crash-test poison-test herd-test tier-test query-chaos-test fuzz-smoke clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over every package; exercises the worker pool,
# sharded CRF trainer, and parallel K-Means under -race.
test-race:
	$(GO) test -race ./...

verify: fmt build vet test lint staticcheck

# gofmt over every Go file outside the hidden top-level directories,
# so the benchmark's .bench_build/, whose module and build caches hold
# sources this repository does not own, is never walked.
fmt:
	@out="$$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l)" || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# Project-specific static analysis (DESIGN §11, §16): the recipelint
# rule suite enforces the invariants the reproduction rests on —
# determinism of the modeling packages, context threading, durable-
# write discipline, fault-point hygiene, the quarantine error
# taxonomy, and since PR 10 the concurrency contracts (lock discipline,
# pool lifetimes, generation pinning, sleep-free tests). The load
# includes _test.go universes, so test code is linted too. -budget
# pins the //recipelint:allow count to the checked-in
# lint-budget.json: a new suppression fails the build until the budget
# is raised in the same change. Built on the stdlib go/types
# toolchain, so it needs nothing beyond the Go toolchain itself.
lint:
	$(GO) run ./cmd/recipelint -budget lint-budget.json ./...

# Static analysis beyond vet. The tool is not vendored: when it is
# absent the target skips with a notice instead of failing, so `make
# verify` works on a bare toolchain; CI installs a pinned version and
# runs it for real.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# Full benchmark suite (quality tables + hot-kernel micro benches).
bench:
	$(GO) test . -run '^$$' -bench . -benchtime 3x

# Serial-vs-parallel twins of the batch engine only; the scaling factor
# on a machine is the ratio of the twins' */sec metrics.
bench-parallel:
	$(GO) test . -run '^$$' -bench 'AnnotateCorpus|AnnotateRunParallel|CRFTrain|KMeans(Serial|Parallel)' -benchtime 3x

# One-iteration pass over the hot-path benchmarks: catches a benchmark
# that no longer compiles or crashes without paying full measurement
# cost. CI runs this on every push. The internal/server pair covers the
# annotate endpoints' cached batch and single-hit response paths.
bench-smoke:
	$(GO) test . -run '^$$' -bench 'AnnotateCorpusSerial|CRFDecode|Tokenizer|POSTagger' -benchtime 1x
	$(GO) test ./internal/ner ./internal/crf ./internal/postag ./internal/tokenize ./internal/similarity ./internal/snapshot -run '^$$' -bench . -benchtime 1x
	$(GO) test ./internal/server -run '^$$' -bench 'BatchHeavyTailCached|AnnotateHotHitCached' -benchtime 1x

# CPU + heap profile of an end-to-end mining run (train + mine). Open
# with: go tool pprof cpu.prof (or mem.prof). See README "Profiling".
PROFILE_N ?= 2000
profile: build
	$(GO) run ./cmd/recipemine mine -n $(PROFILE_N) -cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "wrote cpu.prof and mem.prof (n=$(PROFILE_N)); inspect with: go tool pprof -top cpu.prof"

# Crash-safety drills: kill-at-exact-call-count mining resumes
# (byte-identical), the crash window between a version's install and
# the CURRENT swap in both stores, checkpoint torn-tail recovery, and
# hot-reload rejection paths.
crash-test:
	$(GO) test ./cmd/recipemine -run 'TestMine(Crash|Resume|Interrupt|Refuses)' -count=1
	$(GO) test ./internal/checkpoint ./internal/persist -count=1
	$(GO) test ./internal/snapshot -run 'TestBuildCrashBeforeCurrentSwap' -count=1
	$(GO) test ./internal/server -run 'TestReload' -count=1

# Poison-record drills: an index-targeted panic at any batch position
# costs exactly that record — survivors byte-identical, one typed
# dead-letter line, resume arithmetic intact.
poison-test:
	$(GO) test ./cmd/recipemine -run 'TestMinePoison' -count=1
	$(GO) test ./internal/core -run 'TestContained|TestPartial|TestModelRecipesPartial|TestInstructionsPartial' -count=1

# Heavy-tail chaos drills (DESIGN §13), under -race: a duplicated-
# phrase herd replayed at cache 0 and 256 × worker counts 1 and 4
# while a hot reload or a leader kill lands mid-herd, every response
# byte-identical to a serial test oracle that decodes each request
# phrase by phrase and calls no server code; plus the 1000-strong herd
# that must decode exactly once (cache 0 and 128), the reload-mid-herd
# generation pinning, and the degraded-mode (saturated limiter)
# posture. All disruption timing is fault-point driven — no sleeps.
herd-test:
	$(GO) test -race ./internal/server -run 'TestHerdChaos|TestHerdCoalescesToOneDecode|TestReloadDuringHerdNoStaleGenerationServed|TestDegradedModeHitsServedMissesShed' -count=1
	$(GO) test -race ./internal/flight ./internal/cache -count=1

# Degradation-ladder chaos drills (DESIGN §15), under -race: the
# trip→degrade→recover drill (CRF tier switched dead: zero 5xx, every
# miss answers 200 tier:"rules", the breaker trips and then recovers
# on an injected clock within the probe budget), the differential
# byte-identity contract (rules tier + breaker configured, routing
# off: responses identical to the serial test oracle at cache 0/256 ×
# workers 1/4), the saturated-miss and mixed-batch ladder rungs, the
# agreement audit, plus the breaker and rules-tier unit drills. No
# sleeps anywhere — breaker time is clock-injected.
tier-test:
	$(GO) test -race ./internal/server -run 'TestTier' -count=1
	$(GO) test -race ./internal/breaker ./internal/rules -count=1

# Sharded-query chaos drills (DESIGN §14), under -race: kill one of N
# shards mid-query (every response degraded yet byte-identical to the
# serial oracle restricted to the survivors), reload a new snapshot
# while a query is in flight (generation pinning: the in-flight answer
# stays on the old version), reload an unchanged store while a query is
# in flight (the new generation shares the old one's read state), and
# publish a torn snapshot or corrupt the serving one in place (rejected
# with the previous version still serving). Disruption timing is
# fault-point driven — no sleeps.
query-chaos-test:
	$(GO) test -race ./internal/server -run 'TestQueryChaos' -count=1
	$(GO) test -race ./internal/snapshot -count=1

# Short fuzz passes over the model-load boundary, the end-to-end
# annotate path (arbitrary bytes through sanitizer, tagger, parser),
# the snapshot manifest/segment loader, the snapshot segment decoder
# with its warm-reuse path, and the annotate response writer's string
# escaping against encoding/json — enough to catch a hardening
# regression in CI without a long budget.
fuzz-smoke:
	$(GO) test ./internal/persist -run '^$$' -fuzz 'FuzzLoadBundle' -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz 'FuzzAnnotateIngredient' -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz 'FuzzAnnotateInstruction' -fuzztime 15s
	$(GO) test ./internal/snapshot -run '^$$' -fuzz 'FuzzLoadSnapshot' -fuzztime 15s
	$(GO) test ./internal/snapshot -run '^$$' -fuzz 'FuzzLoadSegment' -fuzztime 15s
	$(GO) test ./internal/server -run '^$$' -fuzz 'FuzzAppendJSONString' -fuzztime 15s

# Rules-tier vs CRF-tier score card (DESIGN §15/§16): per-tier entity
# F1 and single-goroutine phrases/sec on the shared gold ingredient
# corpus. The committed BENCH_PR10.json is this target's output.
bench-tiers:
	$(GO) run ./cmd/benchtiers -out BENCH_PR10.json

# Paper-scale artifact generation.
tables:
	$(GO) run ./cmd/benchtables

clean:
	$(GO) clean ./...
