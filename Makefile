# Reproduction of Mogul & Ramakrishnan, "Eliminating Receive Livelock in
# an Interrupt-driven Kernel" (USENIX 1996).

GO ?= go

.PHONY: all build test vet lint lkvet bench bench-baseline bench-full perfbench-test figures plots examples cover fuzz explore clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static-invariant gate, matching the CI lint lane: the repo's own
# analyzers (cmd/lkvet: simdeterminism, hotalloc, handleleak, uncharged,
# lockguard) plus `go vet`, then staticcheck and govulncheck at the
# versions pinned in scripts/lint-extra.sh (skipped gracefully when
# offline). See DESIGN.md "Static invariants" and §13 "Lock-discipline
# verification" for what the custom passes enforce and how to excuse a
# finding with //lkvet:allow.
lint: lkvet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	./scripts/lint-extra.sh

LKVET_FLAGS ?=
lkvet:
	$(GO) run ./cmd/lkvet $(LKVET_FLAGS) -vet ./...

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
