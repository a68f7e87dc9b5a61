# Repository verification targets. `make ci` is the gate: formatting,
# vet, the determinism lint suite, build, the full test suite, and a
# race-detector pass over the packages that own the campaign worker
# pools.

GO ?= go

.PHONY: ci vet fmtcheck lint allocgate alloc-budget lint-fix-check registry-check build test race fuzz bench benchsmoke bench-json bench-diff cache-identity clean-cache

ci: fmtcheck vet lint allocgate lint-fix-check registry-check build test race benchsmoke cache-identity

vet:
	$(GO) vet ./...

# gofmt cleanliness: any file listed is a failure.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# thesauruslint mechanically enforces the determinism contract
# (docs/determinism.md): no wall-clock/env/math-rand inputs in
# simulation packages, no map iteration feeding ordered output, no
# shared-state mutation from worker goroutines, config-derived PRNG
# seeds, no order-dependent float reductions, and no reads of a released
# resource (docs/performance.md, releaseuse). Audited exceptions live
# in lint.allow.
lint:
	$(GO) run ./cmd/thesauruslint ./...

# The allocation gate for the zero-alloc hot path
# (docs/static-analysis.md): the AST pass flags allocation constructs
# reachable from //thesaurus:hotpath roots (run standalone here with an
# empty allowlist so entries for the other analyzers don't read as
# stale), and the escape pass diffs the compiler's -gcflags=-m escape
# diagnostics on those functions against the committed alloc.budget.
allocgate:
	$(GO) run ./cmd/thesauruslint -allow /dev/null -analyzers allocgate,hotpath-pragma ./...
	$(GO) run ./cmd/thesauruslint -escapes

# Regenerate alloc.budget from the current tree. Review the diff before
# committing: a count moving up is a new hot-path heap allocation.
alloc-budget:
	$(GO) run ./cmd/thesauruslint -escapes -write-budget

# -fix must converge in one pass and never splice overlapping edits;
# these are the regression tests that pin both properties.
lint-fix-check:
	$(GO) test -run 'TestFixIdempotence|TestApplyEditsOverlap' ./internal/lint

# Registry completeness (internal/scheme): every registered design must
# build by name, report its registered name, and round-trip its release
# snapshot through its codec hook — a half-wired scheme fails here, not
# in a stale artifact cache.
registry-check:
	$(GO) test -run 'TestRegistryOrderAndHarnessAgreement|TestEverySchemeIsComplete' ./internal/scheme

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The worker pools live in harness (RunMatrix, ParMap) and are driven by
# the experiments package; -race over their tests catches data races in
# the parallel campaign paths — including the per-worker scratch arenas
# the Thesaurus/BΔI caches carry, the singleflight run coalescing, and
# the cache release lifecycle (docs/performance.md). Short
# trace lengths keep this a smoke pass, not a full campaign.
race:
	$(GO) test -race -count=1 ./internal/harness ./internal/experiments ./internal/thesaurus

# Compile-and-run the micro-benchmarks once: catches benchmarks broken by
# API changes without paying full measurement time. The figure benchmarks
# in the root package are excluded — even one iteration runs a whole
# experiment.
benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/... > /dev/null
	$(GO) test -run='^$$' -bench='Fingerprint|ReadHit|InsertStream|WorkloadGeneration' -benchtime=1x . > /dev/null

# Short fuzzing smoke over the encoding, fingerprint and diff-kernel
# invariants (including the Ideal search's pruning bounds) and the paged
# Thesaurus base table against its map reference model; the
# corpus seeds come from the unit-test vectors, so even a few seconds
# exercises the interesting shapes.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDiffEncodeRoundtrip -fuzztime=5s ./internal/diffenc
	$(GO) test -run='^$$' -fuzz=FuzzLSHFingerprintStable -fuzztime=5s ./internal/lsh
	$(GO) test -run='^$$' -fuzz=FuzzRecordedCodecRoundtrip -fuzztime=5s ./internal/artifact
	$(GO) test -run='^$$' -fuzz=FuzzRunOutputCodecRoundtrip -fuzztime=5s ./internal/artifact
	$(GO) test -run='^$$' -fuzz=FuzzDiffKernels -fuzztime=5s ./internal/line
	$(GO) test -run='^$$' -fuzz=FuzzDiffKernels -fuzztime=5s ./internal/ideal
	$(GO) test -run='^$$' -fuzz=FuzzBaseTable -fuzztime=5s ./internal/thesaurus

# The artifact cache is an accelerator, never an input: campaign reports
# must be byte-identical whether the cache is off, cold, or warm, with
# the run-level layer on or off, serial, parallel, or distributed across
# worker processes (docs/performance.md) — including over the netq TCP
# transport (docs/distribution.md), both with a shared cache dir
# (key-only completions) and with private per-worker dirs (artifact
# streaming), and even when a worker is killed -9 mid-campaign (its
# leases requeue and the survivor finishes). The per-experiment
# wall-clock lines are the only legitimate difference in text mode and
# are filtered before comparison; artifact stats go to stderr and never
# touch the reports. The cold-vs-warm timing at the end enforces the run-level
# cache's reason to exist: a warm quick-campaign rerun must be >=5x
# faster than the cold run (it is pure artifact decode, so the margin is
# ordinarily far larger).
cache-identity:
	@set -e; tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; \
	$(GO) build -o $$tmp/thesaurus ./cmd/thesaurus; \
	echo "cache-identity: cache-off serial (reference)"; \
	$$tmp/thesaurus -no-cache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 2>/dev/null \
		| sed '/completed in/d' >$$tmp/ref.txt; \
	$$tmp/thesaurus -json -no-cache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null >$$tmp/ref.json; \
	echo "cache-identity: cold cache, workers=4"; \
	t0=$$(date +%s%3N); \
	$$tmp/thesaurus -cache-dir $$tmp/cache -workers 4 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null | sed '/completed in/d' >$$tmp/cold.txt; \
	t1=$$(date +%s%3N); \
	echo "cache-identity: warm cache, serial + json workers=4"; \
	$$tmp/thesaurus -cache-dir $$tmp/cache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null | sed '/completed in/d' >$$tmp/warm.txt; \
	t2=$$(date +%s%3N); \
	$$tmp/thesaurus -json -cache-dir $$tmp/cache -workers 4 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null >$$tmp/warm.json; \
	echo "cache-identity: warm cache, run-level layer off"; \
	$$tmp/thesaurus -cache-dir $$tmp/cache -no-run-cache -workers 4 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null | sed '/completed in/d' >$$tmp/norun.txt; \
	echo "cache-identity: distributed (-distribute 2, loopback netq), fresh cache"; \
	$$tmp/thesaurus -distribute 2 -cache-dir $$tmp/dcache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null | sed '/completed in/d' >$$tmp/dist.txt; \
	$$tmp/thesaurus -json -distribute 2 -cache-dir $$tmp/dcache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null >$$tmp/dist.json; \
	echo "cache-identity: netq loopback (-serve + 2 workers, shared cache dir), fresh cache"; \
	$$tmp/thesaurus -serve 127.0.0.1:0 -addr-file $$tmp/addr1 -distribute 2 \
		-cache-dir $$tmp/ncache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null | sed '/completed in/d' >$$tmp/netq.txt; \
	$$tmp/thesaurus -json -serve 127.0.0.1:0 -addr-file $$tmp/addr1 -distribute 2 \
		-cache-dir $$tmp/ncache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null >$$tmp/netq.json; \
	echo "cache-identity: netq streaming (workers with private cache dirs), one worker killed mid-campaign"; \
	$$tmp/thesaurus -worker -connect @$$tmp/addr2 -cache-dir $$tmp/w1cache 2>/dev/null & w1=$$!; \
	$$tmp/thesaurus -worker -connect @$$tmp/addr2 -cache-dir $$tmp/w2cache 2>/dev/null & w2=$$!; \
	( sleep 3; kill -9 $$w2 2>/dev/null ) & killer=$$!; \
	$$tmp/thesaurus -serve 127.0.0.1:0 -addr-file $$tmp/addr2 -lease 5s -serve-grace 30s \
		-cache-dir $$tmp/nkcache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null | sed '/completed in/d' >$$tmp/netqkill.txt; \
	wait $$w1 $$killer 2>/dev/null || true; \
	cmp $$tmp/ref.txt $$tmp/cold.txt; \
	cmp $$tmp/ref.txt $$tmp/warm.txt; \
	cmp $$tmp/ref.json $$tmp/warm.json; \
	cmp $$tmp/ref.txt $$tmp/norun.txt; \
	cmp $$tmp/ref.txt $$tmp/dist.txt; \
	cmp $$tmp/ref.json $$tmp/dist.json; \
	cmp $$tmp/ref.txt $$tmp/netq.txt; \
	cmp $$tmp/ref.json $$tmp/netq.json; \
	cmp $$tmp/ref.txt $$tmp/netqkill.txt; \
	cold=$$((t1-t0)); warm=$$((t2-t1)); \
	echo "cache-identity: cold $${cold}ms, warm $${warm}ms"; \
	if [ $$((warm*5)) -gt $$cold ]; then \
		echo "cache-identity: FAIL: warm quick-campaign rerun not >=5x faster than cold"; exit 1; fi; \
	echo "cache-identity: OK (byte-identical across cache-off/cold/warm/run-cache-off/distributed/netq/netq-kill; warm >=5x cold)"

# Remove the default on-disk artifact cache (the -cache-dir default).
clean-cache:
	rm -rf "$${XDG_CACHE_HOME:-$$HOME/.cache}/thesaurus/artifacts"

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/line ./internal/diffenc ./internal/lsh

# Machine-readable hot-path benchmark trajectory (ns/access, allocs/access,
# MB/s per design point). Regenerate after performance work and commit the
# result; docs/performance.md describes the format.
bench-json:
	$(GO) run ./cmd/thesaurus -benchjson BENCH_hotpath.json

# Re-measure the hot paths and fail if any kernel or hot-path row regresses
# more than 15% ns/op (or grows allocs at all) against the committed
# snapshot. Each run is also appended to results/bench_history.jsonl so the
# performance trajectory accumulates machine-readably.
bench-diff:
	$(GO) run ./cmd/thesaurus -benchdiff BENCH_hotpath.json \
		-benchhistory results/bench_history.jsonl
