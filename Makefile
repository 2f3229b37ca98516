# Tier-1 gate plus the heavier verification jobs. Every target uses only
# the Go toolchain; no external dependencies.

GO ?= go

.PHONY: all build test fmt-check race slow soak topo-soak topo-identity fuzz fuzz-router fuzz-lpm fuzz-faults fuzz-compiled fuzz-topo fuzz-forensics bench bench-e2e bench-compare overhead-guard trace-smoke largetable-identity snapshot vet loc

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

# Network-scale chaos soak: a seeded >=200-node fat-tree campaign
# (flaps + partition/heal + crash + storm) run at -workers 1 and
# -workers 8 with byte-identity asserted over text, CSV and JSON; then
# an injected-violation run whose forensics bundles must all reproduce
# under tacoreplay.
TOPO_SEED ?= 3
topo-soak:
	rm -rf /tmp/taco-topo-soak && mkdir -p /tmp/taco-topo-soak
	$(GO) run ./cmd/tacotopo -campaign -topo fattree -size 14 -mix mixed \
		-seed $(TOPO_SEED) -workers 1 \
		-csv /tmp/taco-topo-soak/w1.csv -json /tmp/taco-topo-soak/w1.json \
		> /tmp/taco-topo-soak/w1.txt
	$(GO) run ./cmd/tacotopo -campaign -topo fattree -size 14 -mix mixed \
		-seed $(TOPO_SEED) -workers 8 \
		-csv /tmp/taco-topo-soak/w8.csv -json /tmp/taco-topo-soak/w8.json \
		> /tmp/taco-topo-soak/w8.txt
	cmp /tmp/taco-topo-soak/w1.txt /tmp/taco-topo-soak/w8.txt
	cmp /tmp/taco-topo-soak/w1.csv /tmp/taco-topo-soak/w8.csv
	cmp /tmp/taco-topo-soak/w1.json /tmp/taco-topo-soak/w8.json
	$(GO) run ./cmd/tacotopo -sizes 6,10,14 -topo fattree -mix mixed \
		-seed $(TOPO_SEED) -csv /tmp/taco-topo-soak/curves.csv
	$(GO) run ./cmd/tacotopo -campaign -topo ring -size 12 -mix mixed \
		-seed $(TOPO_SEED) -inject-violation \
		-forensics-out /tmp/taco-topo-soak/bundles \
		> /tmp/taco-topo-soak/inject.txt; test $$? -eq 1
	for b in /tmp/taco-topo-soak/bundles/*.json; do \
		$(GO) run ./cmd/tacoreplay -bundle $$b || exit 1; \
	done

# Campaign reports (text, CSV, JSON) through the CLI at -workers 1 and
# 8 must match testdata/topo/ byte for byte; the files were captured on
# the commit before the RIPng route store and wire codec were rebuilt.
# TestCampaignReportsMatchGoldens checks the same files in-process.
topo-identity:
	rm -rf /tmp/taco-topo-identity && mkdir -p /tmp/taco-topo-identity
	for g in fattree-6-seed3 scalefree-40-seed7 ring-12-seed3; do \
		set -- $$(echo $$g | tr '-' ' '); \
		for w in 1 8; do \
			o=/tmp/taco-topo-identity/$$g-w$$w; \
			$(GO) run ./cmd/tacotopo -campaign -topo $$1 -size $$2 -mix mixed \
				-seed $${3#seed} -workers $$w -csv $$o.csv -json $$o.json > $$o.txt || exit 1; \
			for ext in txt csv json; do \
				cmp $$o.$$ext testdata/topo/$$g.$$ext || exit 1; \
			done; \
		done; \
	done

# Short differential fuzz bursts (one -fuzz pattern per go test
# invocation); extend FUZZTIME for longer campaigns.
FUZZTIME ?= 30s
fuzz: fuzz-router fuzz-lpm fuzz-faults fuzz-compiled fuzz-forensics

# Golden router vs TACO processor on generated datagrams.
fuzz-router:
	$(GO) test ./internal/router -run xxx -fuzz FuzzGoldenVsTACO -fuzztime $(FUZZTIME)

# All seven routing-table backends in lockstep on decoded op streams —
# including a minimum-block tiled TCAM instance so the fuzzer reaches
# the tile split/merge machinery.
fuzz-lpm:
	$(GO) test ./internal/rtable -run xxx -fuzz FuzzLPMBackends -fuzztime $(FUZZTIME)

# Whole soak campaigns on fuzzed seed/mutator-mix/probability inputs:
# every campaign must stay stall-, mismatch- and unexplained-free.
fuzz-faults:
	$(GO) test ./internal/fault -run xxx -fuzz FuzzSoakDifferential -fuzztime $(FUZZTIME)

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

bench:
	$(GO) test -bench . -benchmem

# The repository's one end-to-end benchmark (bench/README.md): six
# workloads, medians over interleaved passes, correctness digests.
bench-e2e:
	$(GO) run ./bench

# Verdict per (workload, metric) between two `go run ./bench -o` files.
bench-compare:
	$(GO) run ./bench -compare $(OLD) $(NEW)

# The large-table sweep's text and JSON must not depend on the worker
# count, and must match the files captured before the code under them
# was rebuilt: the plain pair before the sweep began sharing inputs and
# bulk-building the tiled TCAM, the -churn 300 pair (point updates on
# every built table) before the tries and the tree moved to flat storage.
largetable-identity:
	rm -rf /tmp/taco-largetable && mkdir -p /tmp/taco-largetable
	for w in 1 8; do \
		for g in "sweep-2000-10000:" "sweep-2000-10000-churn300:-churn 300"; do \
			o=/tmp/taco-largetable/$${g%%:*}-w$$w; \
			$(GO) run ./cmd/tacoexplore -sweep largetable -table-size 2000,10000 $${g#*:} -workers $$w \
				> $$o.txt || exit 1; \
			$(GO) run ./cmd/tacoexplore -sweep largetable -table-size 2000,10000 $${g#*:} -workers $$w -json \
				> $$o.json || exit 1; \
			cmp $$o.txt testdata/largetable/$${g%%:*}.txt || exit 1; \
			cmp $$o.json testdata/largetable/$${g%%:*}.json || exit 1; \
		done; \
	done

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
# halts. stdout and the trace file are cmp'd, interpreter vs compiled.
TRACE_SMOKE_BUNDLES = testdata/forensics/machine-stall-3bus1fu-5cb2e1fee18ed192.json \
	testdata/forensics/stall-campaign-0-7574f14b6e90ff8c.json
trace-smoke:
	rm -rf /tmp/taco-trace-smoke && mkdir -p /tmp/taco-trace-smoke
	for b in $(TRACE_SMOKE_BUNDLES); do \
		o=/tmp/taco-trace-smoke/$$(basename $$b .json); \
		for p in interpreted compiled; do \
			$(GO) run ./cmd/tacoreplay -bundle $$b -step -path $$p -trace-out $$o-$$p.trace \
				> $$o-$$p.txt || exit 1; \
		done; \
		cmp $$o-interpreted.txt $$o-compiled.txt || exit 1; \
		cmp $$o-interpreted.trace $$o-compiled.trace || exit 1; \
	done
	o=/tmp/taco-trace-smoke/loop; \
	$(GO) run ./cmd/tacosim -f testdata/trace/loop.tasm -trace -trace-out $$o-interpreted.trace -interp \
		> $$o-interpreted.txt && \
	$(GO) run ./cmd/tacosim -f testdata/trace/loop.tasm -trace -trace-out $$o-compiled.trace \
		> $$o-compiled.txt && \
	cmp $$o-interpreted.txt $$o-compiled.txt && cmp $$o-interpreted.trace $$o-compiled.trace

# Regenerate the reference snapshot the regression guard checks against.
# Only commit the result when cycle counts are intentionally unchanged —
# TestBenchSnapshotCycles fails otherwise.
snapshot:
	$(GO) test -run xxx -bench . -benchtime 2x -benchmem . > bench_snapshot.txt

vet:
	$(GO) vet ./...

# The two figures a simplicity PR quotes before and after: lines of
# non-test Go outside bench/, in total and per internal package.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l | tail -1
	@for d in internal/*; do \
		printf '%8d %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; \
	done
