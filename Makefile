# Tier-1 gate plus the heavier verification jobs. Every target uses only
# the Go toolchain; no external dependencies.

GO ?= go

.PHONY: all build test fmt-check race slow soak topo-soak topo-identity fuzz fuzz-router fuzz-lpm fuzz-faults fuzz-spec fuzz-compiled fuzz-topo fuzz-forensics fuzz-asm fuzz-ipv6 bench bench-e2e bench-compare overhead-guard trace-smoke largetable-identity snapshot vet loc

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
fuzz: fuzz-router fuzz-lpm fuzz-faults fuzz-spec fuzz-compiled fuzz-topo fuzz-forensics fuzz-asm fuzz-ipv6

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

# The IPv6 parsers (header, extension chain, UDP, ICMP) on arbitrary
# bytes: none may panic, and Validate must never accept a datagram
# ParseHeader rejects. Minimizing is capped as for fuzz-lpm: uncapped,
# the first new inputs held both workers from the third second on.
fuzz-ipv6:
	$(GO) test ./internal/ipv6 -run xxx -fuzz FuzzParsers -fuzztime $(FUZZTIME) -fuzzminimizetime 100x

bench:
	$(GO) test -bench . -benchmem

# The repository's one end-to-end benchmark (bench/README.md): six
# workloads, medians over interleaved passes, correctness digests.
bench-e2e:
	$(GO) run ./bench

# Verdict per (workload, metric) between two `go run ./bench -o` files.
bench-compare:
	$(GO) run ./bench -compare $(OLD) $(NEW)

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
