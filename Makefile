# Tier-1 gate plus the heavier verification jobs. Every target uses only
# the Go toolchain; no external dependencies.

GO ?= go

.PHONY: all build test fmt-check race slow soak topo-soak topo-identity fuzz fuzz-router fuzz-lpm fuzz-faults fuzz-spec fuzz-compiled fuzz-topo fuzz-forensics fuzz-asm fuzz-ipv6 fuzz-ripng fuzz-sort bench bench-e2e bench-compare bench-pair overhead-guard trace-smoke largetable-identity snapshot vet loc reach

all: build test

build:
	$(GO) build ./...

# Tier-1: the default suite, including the workers=1 vs workers=8
# determinism tests and the bench_snapshot.txt cycle-count guard.
test: build vet fmt-check
	$(GO) test ./...

# Every tracked .go file must already be gofmt-formatted.
fmt-check:
	test -z "$$(gofmt -l .)"

# Race-detector pass over everything, exercising the dse worker pool
# and the parallel sweep benchmarks' setup under -race.
race:
	$(GO) test -race ./...

# Long-campaign suite: the -tags slow build adds the extended
# differential LPM churn runs on top of the default tests.
slow:
	$(GO) test -tags slow ./...

# Differential fault soak: repeated golden-vs-TACO campaigns over
# mutated traffic; exits non-zero on any stall, fate mismatch,
# per-reason drop-count divergence, or unexplained drop.
SOAK_CAMPAIGNS ?= 16
soak:
	$(GO) run ./cmd/tacoroute -soak -soak-campaigns $(SOAK_CAMPAIGNS) \
		-packets 96 -entries 96 -faults all:0.2

# Network-scale chaos soak (TestTopoSoak, behind the slow tag): a
# seeded 245-node fat-tree campaign (flaps + partition/heal + crash +
# storm) run through tacotopo at -workers 1 and -workers 8 with
# byte-identity asserted over text, CSV and JSON; convergence curves for
# three sizes; then an injected-violation run whose forensics bundles
# must all reproduce.
topo-soak:
	$(GO) test -count=1 -tags slow -run TestTopoSoak ./cmd/tacotopo

# Campaign reports (text, CSV, JSON) through tacotopo at -workers 1 and
# 8 must match testdata/topo/ byte for byte; the files were captured on
# the commit before the RIPng route store and wire codec were rebuilt.
# Part of the tier-1 suite; internal/net checks the same files.
topo-identity:
	$(GO) test -count=1 -run TestCampaignReportsMatchGoldens ./cmd/tacotopo ./internal/net

# Short differential fuzz bursts (one -fuzz pattern per go test
# invocation); extend FUZZTIME for longer campaigns.
FUZZTIME ?= 30s
fuzz: fuzz-router fuzz-lpm fuzz-faults fuzz-spec fuzz-compiled fuzz-topo fuzz-forensics fuzz-asm fuzz-ipv6 fuzz-ripng fuzz-sort

# Golden router vs TACO processor on generated datagrams.
fuzz-router:
	$(GO) test ./internal/router -run xxx -fuzz FuzzGoldenVsTACO -fuzztime $(FUZZTIME)

# All seven routing-table backends in lockstep on decoded op streams —
# including a minimum-block tiled TCAM instance so the fuzzer reaches
# the tile split/merge machinery. Minimizing a new input is capped at
# 100 runs: the default 60s per input never ends on these multi-KB op
# streams (byte-wise minimization is quadratic in the length, and one
# run drives fifteen tables) and kept both workers from fuzzing after
# the first few seconds; a time cap races the worker's own deadline and
# restarts the worker instead.
fuzz-lpm:
	$(GO) test ./internal/rtable -run xxx -fuzz FuzzLPMBackends -fuzztime $(FUZZTIME) -fuzzminimizetime 100x

# Whole soak campaigns on fuzzed seed/mutator-mix/probability inputs:
# every campaign must stay stall-, mismatch- and unexplained-free.
fuzz-faults:
	$(GO) test ./internal/fault -run xxx -fuzz FuzzSoakDifferential -fuzztime $(FUZZTIME)

# Fault specs (tacoroute -faults): ParseSpec must never panic, and every
# rule of a spec it accepts must fire with a probability in [0, 1].
fuzz-spec:
	$(GO) test ./internal/fault -run xxx -fuzz FuzzParseSpec -fuzztime $(FUZZTIME)

# Compiled fast path vs interpreter on fault-mutated traffic: every
# observable (cycles, sockets, drops, latency, forwarded bytes) must be
# bit-identical on fuzzer-chosen cells, seeds and frames.
fuzz-compiled:
	$(GO) test ./internal/fault -run xxx -fuzz FuzzCompiledVsInterpreted -fuzztime $(FUZZTIME)

# Randomized event schedules (flaps, crashes, storms, probe waves) on
# small meshes: every schedule must quiesce back to the oracle with a
# clean sweep and conserved accounting.
fuzz-topo:
	$(GO) test ./internal/net -run xxx -fuzz FuzzTopologyEvents -fuzztime $(FUZZTIME)

# Forensic bundle files: Load must never panic, and every router bundle
# it accepts must replay without panicking. The seeds are the committed
# corpus (up to 170 KB of JSON each), so minimizing a new input is
# capped at 1s instead of the default 60s.
fuzz-forensics:
	$(GO) test ./internal/forensics -run xxx -fuzz FuzzLoadBundle -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

# The program readers: Assemble (tacosim -f, tacoasm -f) and
# DecodeProgram (tacoasm -d) must never panic, and a program either
# accepts must survive a round trip (disassemble and reassemble,
# re-encode and decode) unchanged.
fuzz-asm:
	$(GO) test ./internal/asm -run xxx -fuzz FuzzAssemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/isa -run xxx -fuzz FuzzDecodeProgram -fuzztime $(FUZZTIME)

# The IPv6 parsers (header, extension chain, UDP) on arbitrary
# bytes: none may panic, and Validate must never accept a datagram
# ParseHeader rejects. Minimizing is capped as for fuzz-lpm: uncapped,
# the first new inputs held both workers from the third second on.
fuzz-ipv6:
	$(GO) test ./internal/ipv6 -run xxx -fuzz FuzzParsers -fuzztime $(FUZZTIME) -fuzzminimizetime 100x

# The RIPng wire codec, two targets. FuzzWrapUnwrapUDP on fuzzed
# packets: every frame must equal the three-buffer build, round-trip
# through the one-pass decoder, encode into a reused dirty buffer and
# decode into a dirty scratch exactly as on the fresh path, derive every
# interface's frame equal to WrapUDP of that interface's packet, and
# reject any single flipped bit. FuzzUnwrapUDP on arbitrary bytes: the
# one-pass decoder must fail exactly when the two-step one (ParseUDP,
# then Parse) fails, and otherwise agree with it field for field.
# Minimizing is capped as for fuzz-lpm.
fuzz-ripng:
	$(GO) test ./internal/ripng -run xxx -fuzz FuzzWrapUnwrapUDP -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	$(GO) test ./internal/ripng -run xxx -fuzz FuzzUnwrapUDP -fuzztime $(FUZZTIME) -fuzzminimizetime 100x

# The large-table sweep's route-set sort on fuzzed sets (equal, narrow
# and spread high words, duplicates): SortRoutesInPlace must equal a
# full sort, and its index must lead every input route to its prefix.
# Minimizing is capped as for fuzz-lpm: uncapped, both workers stopped
# fuzzing after the first three seconds.
fuzz-sort:
	$(GO) test ./internal/rtable -run xxx -fuzz FuzzSortRoutes -fuzztime $(FUZZTIME) -fuzzminimizetime 100x

bench:
	$(GO) test -bench . -benchmem

# The repository's one end-to-end benchmark (bench/README.md): six
# workloads, medians over interleaved passes, correctness digests.
bench-e2e:
	$(GO) run ./bench

# Verdict per (workload, metric) between two `go run ./bench -o` files.
bench-compare:
	$(GO) run ./bench -compare $(OLD) $(NEW)

# A speed claim's evidence, written as BENCH_$(RECORD).json and checked
# by TestBenchLedger: PAIRS alternating runs of WORKLOAD (-passes 3
# -seconds 9 each), revision OLD against the working tree. OLD is
# exported into a temporary directory, each side's bench binary is built
# once and runs from its own checkout (bench writes .bench_build/ into its
# working directory), and the side that runs first alternates pair by
# pair. The record keeps the claim — METRIC, in its fixed direction,
# better by at least MIN_CHANGE, a share of OLD's median — and every
# run's -o results, whitespace squeezed. The ledger sets the bar for
# pairs and wins.
PAIRS ?= 10
bench-pair:
	@test -n "$(OLD)" -a -n "$(WORKLOAD)" -a -n "$(RECORD)" -a -n "$(METRIC)" -a -n "$(MIN_CHANGE)" || { \
		echo "usage: make bench-pair OLD=<rev> WORKLOAD=<name> RECORD=<NNNN> METRIC=<name> MIN_CHANGE=<share> [PAIRS=10]"; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/old"; git archive "$(OLD)" | tar -x -C "$$tmp/old"; \
	(cd "$$tmp/old" && $(GO) build -o "$$tmp/old.bin" ./bench); \
	$(GO) build -o "$$tmp/new.bin" ./bench; \
	run() { \
		echo "pair $$2: $$1"; \
		if [ "$$1" = old ]; then dir="$$tmp/old"; else dir=.; fi; \
		(cd "$$dir" && "$$tmp/$$1.bin" -workload "$(WORKLOAD)" -passes 3 -seconds 9 -o "$$tmp/$$1-$$2.json" >/dev/null); \
	}; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then run old $$i; run new $$i; else run new $$i; run old $$i; fi; \
	done; \
	squeeze() { sed 's/^ *//' "$$1" | tr -d '\n'; }; \
	{ printf '{"record":%d,"old":"%s","new":"%s",\n' \
		$$(expr $(RECORD) + 0) "$$(git rev-parse --short "$(OLD)")" "$$(git describe --always --dirty)"; \
	  printf '"claim":{"workload":"%s","metric":"%s","min_change":%s},\n"pairs":[' \
		"$(WORKLOAD)" "$(METRIC)" "$(MIN_CHANGE)"; \
	  for i in $$(seq 1 $(PAIRS)); do \
		first=old; [ $$((i % 2)) = 1 ] || first=new; \
		[ $$i = 1 ] || printf ',\n'; \
		printf '{"first":"%s","old":' $$first; squeeze "$$tmp/old-$$i.json"; \
		printf ',"new":'; squeeze "$$tmp/new-$$i.json"; printf '}'; \
	  done; printf ']}\n'; } > BENCH_$(RECORD).json; \
	echo "wrote BENCH_$(RECORD).json"; $(GO) test -count=1 -run TestBenchLedger .

# The large-table sweep's text and JSON through tacoexplore must not
# depend on the worker count, and must match the files captured before
# the code under them was rebuilt: the plain pair before the sweep began
# sharing inputs and bulk-building the tiled TCAM, the -churn 300 pair
# (point updates on every built table) before the tries and the tree
# moved to flat storage. Part of the tier-1 suite.
largetable-identity:
	$(GO) test -count=1 -run TestLargeTableSweepMatchesGoldens ./cmd/tacoexplore

# The CI overhead guard (overhead_guard_test.go, behind its build tag
# because it asserts on wall-clock time): compiled-with-counters must
# stay within 1.3x and compiled-with-recorder within 1.6x of
# compiled-bare across the Table 1 sweep.
overhead-guard:
	$(GO) test -tags overhead -run TestObservationOverhead -v .

# Everything that reads the flight recorder cycle by cycle must print
# the same bytes whichever step path ran: tacoreplay -step -trace-out
# over a bare-machine and a router bundle of the committed corpus, and
# tacosim -trace -trace-out over a loop whose guard fails, jumps and
# halts. stdout and the trace file are compared, interpreter vs
# compiled. Part of the tier-1 suite.
trace-smoke:
	$(GO) test -count=1 -run 'TestStepIdenticalOnBothPaths|TestTraceIdenticalOnBothPaths' ./cmd/tacoreplay ./cmd/tacosim

# Regenerate the reference snapshot the regression guard checks against.
# Only commit the result when cycle counts are intentionally unchanged —
# TestBenchSnapshotCycles fails otherwise.
snapshot:
	$(GO) test -run xxx -bench . -benchtime 2x -benchmem . > bench_snapshot.txt

vet:
	$(GO) vet ./...

# The figures a simplicity PR quotes before and after: lines of
# non-test Go outside bench/, in total, in cmd/ and per internal package.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l | tail -1
	@printf '%8d %s\n' $$(find cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) cmd
	@for d in internal/*; do \
		printf '%8d %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; \
	done

# The functions no tool and not ./bench links (reach_test.go, part of the
# tier-1 suite): builds every binary with inlining off, prints the list
# and checks it against testdata/reach.txt.
reach:
	$(GO) test -count=1 -run TestNoUnlinkedProductCode -v .
