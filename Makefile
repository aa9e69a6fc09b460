# Entry points mirroring .github/workflows/ci.yml.

GO ?= go
FUZZTIME ?= 15s

.PHONY: all build test race lint fmt vet analyze alloc-gate fuzz check smoke-simd smoke-shard smoke-chaos bench bench-compare bench-smoke bench-harness ci

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint is the full static-analysis gate CI runs: formatting, vet, and the
# eight-analyzer lint suite (see "Static analysis" in README.md).
lint: fmt vet analyze

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# analyze runs all eight analyzers (determinism + lifetime/units) with the
# committed baseline: grandfathered findings are report-only, anything new
# fails, and //lint:allow directives that justify nothing or suppress
# nothing fail too.
analyze:
	$(GO) run ./cmd/analyze -baseline analyze_baseline.json ./...

# alloc-gate pins the hot-path allocation contract: the steady-state
# micro-benchmarks must report exactly 0 allocs/op. The $$-anchors keep
# the reference twin (BenchmarkRSDetectGeneric) out of the gate — only
# the production paths are held to zero.
alloc-gate:
	@fail=0; \
	for spec in "internal/memctrl BenchmarkChannelReadStream" \
	            "internal/memctrl BenchmarkChannelBatchIssue" \
	            "internal/memctrl BenchmarkChannelWriteDrain" \
	            "internal/heterodmr BenchmarkHeteroDMRReadMode" \
	            "internal/rs BenchmarkRSDetect"; do \
		set -- $$spec; \
		out=$$($(GO) test -run '^$$' -bench "$$2"'$$' -benchmem "./$$1") || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | awk -v bench="$$2" ' \
			/allocs\/op/ { n++; if ($$(NF-1)+0 != 0) { print "alloc-gate: " $$1 " reports " $$(NF-1) " allocs/op; want 0"; bad=1 } } \
			END { if (n == 0) { print "alloc-gate: no benchmark matched " bench; bad=1 } exit bad }' || fail=1; \
	done; \
	exit $$fail

fuzz:
	$(GO) test -run NONE -fuzz FuzzGF256MulInverse -fuzztime $(FUZZTIME) ./internal/gf256
	$(GO) test -run NONE -fuzz FuzzRSRoundTrip -fuzztime $(FUZZTIME) ./internal/rs
	$(GO) test -run NONE -fuzz FuzzDetectWordEquivalence -fuzztime $(FUZZTIME) ./internal/rs
	$(GO) test -run NONE -fuzz FuzzAddrMapBijective -fuzztime $(FUZZTIME) ./internal/memctrl
	$(GO) test -run NONE -fuzz FuzzChannelTraffic -fuzztime $(FUZZTIME) ./internal/memctrl
	$(GO) test -run NONE -fuzz FuzzWorkerBatch -fuzztime $(FUZZTIME) ./internal/shard
	$(GO) test -run NONE -fuzz FuzzJobSpec -fuzztime $(FUZZTIME) ./internal/simd
	$(GO) test -run NONE -fuzz FuzzDecodeEntry -fuzztime $(FUZZTIME) ./internal/runcache
	$(GO) test -run NONE -fuzz FuzzReadTrace -fuzztime $(FUZZTIME) ./internal/hpc

# bench runs the hot-path benchmark suite with allocation reporting: the
# steady-state micro-benchmarks (which must stay at 0 allocs/op), the
# Grizzly-scale cluster scheduler, the node front end's record and replay
# halves, and the full-suite BenchmarkRunAllSeq. The end-to-end
# benchmark is the harness under bench/ (sh bench/run.sh); CHANGES.md
# records each change's measured effect.
bench:
	$(GO) test -run '^$$' -bench BenchmarkChannelReadStream -benchmem ./internal/memctrl
	$(GO) test -run '^$$' -bench 'BenchmarkChannelBatchIssue$$' -benchmem ./internal/memctrl
	$(GO) test -run '^$$' -bench BenchmarkChannelWriteDrain -benchmem ./internal/memctrl
	$(GO) test -run '^$$' -bench BenchmarkHeteroDMRReadMode -benchmem ./internal/heterodmr
	$(GO) test -run '^$$' -bench BenchmarkRSDetect -benchmem ./internal/rs
	$(GO) test -run '^$$' -bench BenchmarkSimulateGrizzly -benchmem ./internal/hpc
	$(GO) test -run '^$$' -bench 'BenchmarkNode(Record|Replay)$$' -benchmem ./internal/node
	$(GO) test -run '^$$' -bench 'BenchmarkRunAll' -benchmem -benchtime 1x .

# bench-compare pits the word-parallel RS syndrome sweep against its
# in-tree reference twin, the byte-wise sweep the fuzz test pins it to,
# then runs the full sequential suite.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkRSDetect' -benchmem ./internal/rs
	$(GO) test -run '^$$' -bench BenchmarkRunAllSeq -benchmem -benchtime 1x .

# bench-smoke compiles and runs every benchmark once under the race
# detector — a correctness gate (the benchmarks drive the same pooled
# code paths the experiment engine uses concurrently), not a timing run.
bench-smoke:
	$(GO) test -race -run '^$$' -bench . -benchtime 1x ./...

# bench-harness checks the benchmark harness under bench/. It is its own
# module (bench/go.mod), so `go vet ./...` and `go test ./...` at the root
# never reach it: a change that breaks a counter or an API the harness
# reads fails here instead.
bench-harness:
	@cd bench && out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	cd bench && $(GO) vet ./... && $(GO) test ./...

# check runs the quick experiment suite with conservation self-checks:
# any accounting violation in the simulators fails the build.
check:
	$(GO) run ./cmd/heterodmr -all -quick -check > /dev/null

# smoke-simd exercises the simulation daemon end to end over real HTTP:
# cold run, daemon restart, replay from the persistent run cache with
# zero re-simulations and byte-identical result bytes.
smoke-simd:
	sh scripts/simd_smoke.sh

# smoke-shard exercises scale-out sharded execution end to end: a
# coordinator fanning the experiment matrix out to two local worker
# processes over a shared content-addressed cache, one worker killed
# mid-suite, output compared byte for byte against the sequential run,
# then a warm-cache replay that must recompute nothing.
smoke-shard:
	sh scripts/shard_smoke.sh

# smoke-chaos drives the whole degradation ladder over real binaries:
# a coordinator and workers with transport/cache faults armed, a cache
# entry corrupted on disk behind the store's back, one worker SIGKILLed,
# and a daemon SIGTERMed with a job in flight then restarted — every
# output byte-compared against the clean run.
smoke-chaos:
	sh scripts/chaos_smoke.sh

ci: build test race lint alloc-gate fuzz check smoke-simd smoke-shard smoke-chaos bench-harness
