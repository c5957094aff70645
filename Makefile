# Reproduction of Mogul & Ramakrishnan, "Eliminating Receive Livelock in
# an Interrupt-driven Kernel" (USENIX 1996).

GO ?= go

.PHONY: all build test vet lint lkvet inline bench bench-baseline bench-full perfbench-test invariance figures plots examples cover fuzz explore clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static-invariant gate, matching the CI lint lane: the repo's own
# analyzers (cmd/lkvet: simdeterminism, hotalloc, uncharged, lockguard)
# plus `go vet`, then staticcheck and govulncheck at the versions pinned
# in scripts/lint-extra.sh (skipped gracefully when offline). See DESIGN.md "Static invariants" and §13 "Lock-discipline
# verification" for what the custom passes enforce and how to excuse a
# finding with //lkvet:allow.
lint: lkvet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	./scripts/lint-extra.sh

LKVET_FLAGS ?=
lkvet:
	$(GO) run ./cmd/lkvet $(LKVET_FLAGS) -vet ./...

# Inlining guard: the engine's insert, Disarm and AfterCall must stay
# inside the compiler's inlining budget (CI runs it in the lint lane).
inline:
	GO=$(GO) ./scripts/check-inline.sh

test:
	$(GO) test ./...

# Full test log, as recorded in the repository.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

# Benchmark-regression gate: run the substrate microbenchmarks and fail
# on >10% events/sec regression (or any alloc increase) against the
# committed baseline. Regenerate the baseline with bench-baseline after
# an intentional performance change, on a quiet machine.
bench:
	$(GO) run ./cmd/lkbench -baseline BENCH_baseline.json

bench-baseline:
	$(GO) run ./cmd/lkbench -baseline BENCH_baseline.json -update

# The full benchmark suite: every host-cost bench (substrate
# microbenches, simulated seconds, the sweep executor).
bench-full:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# The host-cost benchmark's own tests (perfbench/ is its own module, so
# the tier-1 `go test ./...` does not reach it): in short mode every
# workload runs in both modes and must report exactly BENCHMARK.json's
# metrics, zero failed operations, and its pinned output digests.
perfbench-test:
	cd perfbench && $(GO) test -short ./...

# One command proves that no model output moved: every figure's CSV at
# seeds 1, 3 and 7 with the default and the 100 ms/300 ms windows, the
# golden figures, the kernel timeline digests, the per-packet stage-stream
# digests, the Perfetto golden, the explore state spaces, the committed
# explore counterexamples (replayed clean) and the perfbench output
# digests, all against pins in the tree. Outside tier-1 (about a minute on 2 vCPUs); each pin's
# regeneration command is in its test.
invariance:
	LIVELOCK_INVARIANCE=1 $(GO) test -count=1 -run '^(TestFigureSeedDigests|TestGoldenFigureHashes)$$' .
	LIVELOCK_INVARIANCE=1 $(GO) test -count=1 -run '^(TestUniprocessorEquivalence|TestSMPTimelineDigests|TestStageStreamDigests)$$' ./internal/kernel/
	$(GO) test -count=1 -run '^TestPerfettoGolden$$' ./cmd/lkstat/
	$(GO) test -count=1 -run '^(TestExploreExhaustsBuiltins|TestExploreRegressions)$$' ./internal/explore/
	$(MAKE) perfbench-test

# Regenerate every figure from the paper's evaluation.
figures:
	$(GO) run ./cmd/lkfigures

plots:
	$(GO) run ./cmd/lkfigures -plot

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/firewall
	$(GO) run ./examples/userprogress
	$(GO) run ./examples/burstlatency
	$(GO) run ./examples/rpcserver
	$(GO) run ./examples/monitor
	$(GO) run ./examples/flowcontrol
	$(GO) run ./examples/tcpbulk

cover:
	$(GO) test -cover ./...

# Short fuzz pass over every netstack wire-format decoder, the routing
# table's longest-prefix match, and the event engine and the CPU
# dispatcher against their references (CI runs the same targets).
# Override FUZZTIME for longer local hunts; crashes land in the
# package's testdata/fuzz/ — commit them as regression seeds.
FUZZTIME ?= 10s
fuzz:
	for target in FuzzIPv4Unmarshal FuzzUDPParse FuzzTCPParse \
	              FuzzICMPParse FuzzRoutingTable; do \
		$(GO) test -run "^$$target$$" -fuzz "^$$target$$" \
			-fuzztime=$(FUZZTIME) ./internal/netstack/ || exit 1; \
	done
	$(GO) test -run '^FuzzEngineDifferential$$' -fuzz '^FuzzEngineDifferential$$' \
		-fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) test -run '^FuzzCPUDispatch$$' -fuzz '^FuzzCPUDispatch$$' \
		-fuzztime=$(FUZZTIME) ./internal/cpu/

# Exhaust every built-in exploration scenario: enumerate all bounded
# interleavings and fault outcomes, checking the livelock-freedom
# invariants (including the runtime lock-discipline checker on SMP
# scenarios) in every reachable state (see DESIGN.md §9 and §13). Fails
# on the first scenario with a violation; counterexample scripts are
# dumped under explore-artifacts/ for replay with lkexplore -replay.
explore:
	for sc in intrloss feedback cyclelimit smpcontend lockorder coalesce; do \
		$(GO) run ./cmd/lkexplore -scenario $$sc -dump explore-artifacts || exit 1; \
	done

clean:
	rm -f test_output.txt bench_output.txt
	rm -rf explore-artifacts
