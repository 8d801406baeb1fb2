GO ?= go

# Benchmark time per case; CI overrides with BENCHTIME=1x so the bench
# targets stay in seconds, local runs can use e.g. BENCHTIME=500ms.
BENCHTIME ?=
BENCHFLAGS = -bench . -benchmem -run '^$$' $(if $(BENCHTIME),-benchtime=$(BENCHTIME))

.PHONY: build test race vet crossarch fmt lint lint-tools chaos cluster-chaos cover alloc fuzz bench-smoke bench benchcheck loc ci clean

# Pinned static-analysis tool versions; `make lint-tools` installs them
# (CI does this — it needs network, so it is not part of `make lint`).
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

# Minimum covered-statement percentage for internal/distrib (the fault
# tolerance machinery); enforced by `make cover` / the CI test job.
DISTRIB_MIN_COVER ?= 80

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the concurrency-heavy packages: the obs metric registry
# and span buffer, the parallel-for pool, the kernel ladder's tiling,
# the memplan arena, the DDP trainer, the pooled pipeline, the
# inference server (worker pool + micro-batcher + admission control),
# the cluster gateway (router, hedges, prober), DDnet's eval forward
# (the differential oracle, the fused plan, and concurrent warm
# forwards sharing the table cache and recycled backends), the
# classifier's plan oracle (over arenas, worker counts and lazy or Warm
# compilation), and ag's convolutions and plane ops (the Conv3D GEMM
# lowering and the max pools and up-sample against their direct loop
# nests on 1, 2 and 4 procs, the graph/eval equality on 1 and 4, the
# max-pool backward, the caller-side operand checks, and the
# gradchecks, whose shared backwards write disjoint planes and dW
# elements from pool workers).
race:
	$(GO) test -race ./internal/obs/... ./internal/parallel/... ./internal/kernels/... ./internal/memplan/... ./internal/distrib/... ./internal/serve/... ./internal/cluster/...
	$(GO) test -race -run 'Pooled|Concurrent|Allocs|Split' ./internal/core/
	$(GO) test -race -run 'Oracle|Warm|Fused|Plan' ./internal/ddnet/
	$(GO) test -race -run 'Pooled|Oracle|Plan' ./internal/classify/
	$(GO) test -race -run 'Conv|Grad|Pool|Share|Upsample' ./internal/ag/

# vet includes asmdecl, which checks the frame offsets and argument
# sizes in internal/kernels/gemm_amd64.s and planes_amd64.s against
# their Go declarations.
vet:
	$(GO) vet ./...

# The GEMM micro-kernels and the plane ops' vector steps are amd64
# assembly; every other GOARCH runs gemmRow's Go loop and the plane
# passes' Go loops alone. GOARCH=386 runs that fallback natively on an
# amd64 host (kernels holds the bit-for-bit micro-kernel and staged
# oracle tests, ag the Conv3D lowering onto it and the max-pool and
# up-sample direct-nest oracles, ddnet and classify the
# networks' output and training bit pins and plan budgets, end to end,
# segment the bitset closing's mask pins on 32-bit ints, and core the
# whole classify tail), and the arm64 vet type-checks the whole tree
# without the assembly.
crossarch:
	GOARCH=386 $(GO) test ./internal/kernels/ ./internal/ag/ ./internal/ddnet/ ./internal/classify/ ./internal/segment/ ./internal/core/
	GOARCH=arm64 $(GO) vet ./...

# Fail when any file is not gofmt-clean (CI lint job).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Static analysis beyond vet: gofmt, go vet, the test-only-symbol
# check (scripts/testonly: no exported identifier in internal/ that only
# tests use, beyond scripts/testonly.allow), staticcheck (whose default
# checks include U1000, unused code), and govulncheck. The last two run
# only when installed (`make lint-tools`); a loud SKIP is printed
# otherwise so local runs without network still pass while CI — which
# always installs them — gets the full gate.
lint: fmt vet
	$(GO) run ./scripts/testonly
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "SKIP staticcheck (not installed; run 'make lint-tools')"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "SKIP govulncheck (not installed; run 'make lint-tools')"; \
	fi

# Install the pinned analysis tools (requires network; CI-only in
# offline environments).
lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Repetition counts for the chaos suites; the nightly CI lane raises
# them (more scheduling interleavings per run), the PR lane keeps the
# defaults fast.
CHAOS_COUNT ?= 2
CLUSTER_CHAOS_COUNT ?= 2

# Chaos suite: every fault-injection test (rank crash, message drop,
# corrupt payload, delay, straggler, elastic recovery) repeated under
# the race detector — the CI nightly chaos job runs exactly this.
chaos:
	$(GO) test ./internal/distrib/... -run Fault -count=$(CHAOS_COUNT) -race

# Cluster chaos: the replica-kill-mid-load tests (3 replicas behind the
# gateway, one killed and restarted, zero client-visible failures —
# unsharded and scatter/gather-sharded) under the race detector — the
# CI nightly cluster job runs exactly this.
cluster-chaos:
	$(GO) test ./internal/cluster/ -run Chaos -count=$(CLUSTER_CHAOS_COUNT) -race -v

# Coverage gate: profile internal/distrib and fail below
# DISTRIB_MIN_COVER percent covered statements.
cover:
	$(GO) test -coverprofile=coverage-distrib.out ./internal/distrib/
	./scripts/covcheck.sh coverage-distrib.out $(DISTRIB_MIN_COVER)

# Allocation gate: the AllocsPerRun tests asserting the warm inference
# hot paths (arena get/release, DDnet enhance, classifier predict, and
# the whole-pipeline enhance/classify) allocate exactly zero bytes per
# operation in steady state, and that the scan wire codec allocates
# nothing but the decoded voxels. Deterministic, so it blocks CI
# outright — no threshold, no noise floor.
alloc:
	$(GO) test -run 'TestAllocs' -count=1 ./internal/memplan/ ./internal/ddnet/ ./internal/classify/ ./internal/core/ ./internal/serve/

# Fuzzing: every native Fuzz* target under internal/, one after the
# other for FUZZTIME each (go test -fuzz takes one target per run). The
# seed corpora already run as plain tests in `make test`; the nightly
# lane fuzzes longer. A failing input is written to the package's
# testdata/fuzz/ directory, where it becomes a regression seed.
FUZZTIME ?= 10s

fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz $$t ./$$(dirname $$f)"; \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./$$(dirname $$f); \
		done; \
	done

# bench/ is its own module (the BENCHMARK.json yardstick), so neither
# `go build ./...` nor `go test ./...` compiles it and a signature it
# relies on can break unnoticed until the benchmark driver runs. This
# vets it and runs its smoke test (~12 s) against this tree; it edits
# nothing under bench/.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The full gate CI runs: build, lint, the cross-architecture check,
# the whole test suite, the race-detector pass over the concurrent
# packages, both chaos suites, the allocation gate, the bench-module
# smoke test, and the distrib coverage gate.
ci: build lint crossarch test race chaos cluster-chaos alloc bench-smoke cover

# Disabled-telemetry overhead (must stay in the single-digit ns/op
# range), the parallel-for overhead benchmark, the kernel benchmarks
# (the four Table 7 rungs and the ConvFused GEMM as "fused", by
# BenchmarkConvRungs/BenchmarkDeconvRungs, and the served max pools and
# up-sample, by BenchmarkPlaneOps), and the pooled pipeline hot
# paths (whose allocs/op must stay 0 — see `make alloc`).
bench:
	$(GO) test $(BENCHFLAGS) ./internal/obs/
	$(GO) test $(BENCHFLAGS) ./internal/parallel/
	$(GO) test $(BENCHFLAGS) ./internal/kernels/
	$(GO) test $(BENCHFLAGS) ./internal/core/

# Benchmark-regression gate: benchmark a baseline checkout (BASE_REF,
# default origin/main or HEAD~1) against HEAD and fail on >15% ns/op
# regressions. See scripts/benchcheck.sh for the knobs.
benchcheck:
	./scripts/benchcheck.sh

# Line-count report: non-test Go and assembly lines per internal/*
# package at BASE_REF (default origin/main or HEAD~1) versus this tree,
# with the net delta — a reported metric of every PR (negative is
# good). See scripts/loc.sh.
loc:
	./scripts/loc.sh

clean:
	$(GO) clean ./...
