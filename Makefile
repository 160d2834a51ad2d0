# Build, test and benchmark entry points. `make check` is the CI gate:
# go vet plus the full suite under the race detector.
#
# Three bench surfaces: the repository benchmark (`bash benchmark/run.sh`,
# gated end to end), the `go test -bench` layer lanes, and `xqbench` for what
# neither produces — the paper's tables and figures, the planner regret lane
# and the open-loop load lane. `make bench` runs the tier-1 suite under the
# race detector, then the layer lanes BENCH selects (text on stdout, which is
# what benchstat reads), then `plannerbench` and `loadbench`. Only those two
# write a tracked result file (BENCH_planner.json, BENCH_load.json), and they
# build with -buildvcs=true so the file's envelope names the commit (`go run`
# alone leaves no VCS stamp); `plannerquick` and `loadquick` are their CI
# variants and write nothing.
#
# `make benchquick` smoke-runs the key benchmarks at one iteration each — the
# ablations (Lookahead Rule, estimator, time to first results), the
# result-path, /query-encode (serial at -cpu 1, chunk-parallel at -cpu 2),
# plan_cold-execution and first-k-execution layer lanes, the lanes
# under them (value range probe against scan+filter, Stack-Tree Desc/Anc by
# input shape and axis, posting-block decode, numeric predicate parse), the
# storage lanes (buffer-pool hit and
# miss, store build) and the write-side lanes (XML parse, document image
# encode and decode, segment staging, store version assembly,
# value probes at 2 and 256 segments, the four-write corpus cycle and a
# four-shard recovery on disk WALs) included — plus the allocation regression
# guards: a CI-friendly check that they still build, run and validate their
# counts. `make fuzzquick` runs the eight Fuzz* targets for ten seconds each.
# `make chaos`, `replicachaos` and `walchaos` are the fault-injection suites
# (read faults, dead replicas, crashes at every WAL write), all under the race
# detector. `make loc` prints the code-size table CHANGES.md quotes, and
# `make examples` runs the six example programs.
#
# BENCH selects the layer lanes of `make bench` (default: the plan-cache,
# value-index, plan_cold execution and first-k execution lanes; BENCH=. adds the ablations and the observability,
# result-path, recovery and write-cycle lanes). The paper's tables and
# figures are `go run ./cmd/xqbench all`.

GO    ?= go
BENCH ?= PlanCache|ContentIndex|ExecPlanColdTwig|ExecFirstK

.PHONY: all build test test-race vet check loc examples chaos replicachaos walchaos bench benchquick fuzzquick loadbench loadquick plannerbench plannerquick clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

check: vet test-race

# Code size, one fixed pipeline: non-blank, non-comment-only lines of
# non-test Go in the root package, internal/core, internal/exec,
# cmd/xqserve, internal/storage and internal/xmltree, then in the whole
# module (benchmark/ is its own).
loc:
	@for d in . internal/core internal/exec cmd/xqserve internal/storage internal/xmltree; do \
		printf '%-17s %s\n' $$d $$(cat $$(ls $$d/*.go | grep -v _test.go) | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l); \
	done
	@printf '%-17s %s\n' total $$(cat $$(ls *.go internal/*/*.go cmd/*/*.go | grep -v _test.go) | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l)

# Every example program, run end to end: no test executes them, and each
# drives the library facade the way a user would. A non-zero exit fails the
# target.
examples:
	@for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run ./$$d || exit 1; \
	done

# Fault-injection differential suite under the race detector: every
# optimizer method over an injected-fault store must return the exact
# fault-free result or a typed error — never a wrong answer or a panic.
chaos:
	$(GO) test -race -run 'TestChaos|TestRunRecovers|TestAdmission|TestDrain|TestQueryPath|TestWriteMetricsResilience' .
	$(GO) test -race -run 'PropagatesStorageErrors' ./internal/exec/
	$(GO) test -race ./internal/faultfs/ ./internal/admission/

# Replica fault-injection suite: kill one replica of every shard, serve
# through a slow one, fail over, recover through probation probes — all under
# the race detector, with results compared byte-for-byte against a fault-free
# corpus.
replicachaos:
	$(GO) test -race -count=1 -run 'TestCorpusReplica|TestCorpusLimitErrorRace' .
	$(GO) test -race -count=1 ./internal/replica/

# Write-path crash suite under the race detector: crash the process at
# every WAL write ordinal (and with a torn final write, and with a crashed
# store file) across all five paper methods; recovery must land on a
# committed prefix every time. The corpus write-path tests, the write
# golden and both recorded-log fixtures run with it.
walchaos:
	$(GO) test -race -count=1 -run 'TestWAL|TestIngest|TestCorpusIngest|TestWriteGolden|TestRecover|TestUpgradeInPlace' .
	$(GO) test -race -count=1 ./internal/storage/

bench: test-race
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem .
	$(MAKE) plannerbench loadbench

# Planning-cost lane: optimize time, resulting execution time and regret for
# every optimizer method (DP, DPP, DPAP-EB, DPAP-LD, FP, Greedy) on the
# Table-3 workloads, deep-chain/wide-fanout stress shapes and the eight
# plan_cold twigs, into BENCH_planner.json. plannerquick is the CI smoke
# variant.
plannerbench:
	$(GO) run -buildvcs=true ./cmd/xqbench planner -out BENCH_planner.json

plannerquick:
	$(GO) run ./cmd/xqbench planner -quick
	$(GO) test -run '^$$' -bench 'SearchPlanCold' -benchtime=1x ./internal/core/

benchquick:
	$(GO) test -run '^$$' -bench 'AblationLookahead|AblationEstimator|TimeToFirstResults|PlanCache|ContentIndex|ObservabilityOverhead|CorpusResultPath|ExecPlanColdTwig|ExecFirstK|ValueRangeProbe|CorpusWriteCycle|CorpusRecover' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'ServeQueryEncode' -benchtime=1x -cpu 1,2 ./cmd/xqserve/
	$(GO) test -run '^$$' -bench 'Parse$$|Image' -benchtime=1x ./internal/xmltree/
	$(GO) test -run '^$$' -bench 'BufferPool|BuildStore$$|StageSegment|StoreVersion|ForestProbe|DecodeBlock' -benchtime=1x ./internal/storage/
	$(GO) test -run '^$$' -bench 'StackTree' -benchtime=1x ./internal/exec/
	$(GO) test -run '^$$' -bench 'ParseNumeric' -benchtime=1x ./internal/pattern/
	$(GO) test -run 'TestBatchedProbeAllocs|TestResultPathAllocs|TestResultPathBytes|TestExecScratchAllocs|TestPointShardAllocs' -v .

# Every fuzz target for ten seconds each (go test takes one -fuzz target and
# one package a run): the XML parser against its encoding/xml oracle, the
# document image decoder (both format versions) and the WAL scan (both record
# forms) on arbitrary bytes, posting-block decode against a plain
# binary.Uvarint loop, the pattern parser (what parses re-parses from
# String() to the same Fingerprint), numeric predicate values against
# strconv.ParseFloat bit for bit, the XQuery compiler, and the Stack-Tree
# join (both algorithms and axes, scan or join-output left input, capped
# output batches) against its nested-loop order. The WAL target's
# inputs run to a page-image record of 8 KB, and the default minute spent
# minimising each new one would be its whole budget: it gets a second.
fuzzquick:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=10s ./internal/xmltree/
	$(GO) test -run '^$$' -fuzz '^FuzzReadImage$$' -fuzztime=10s ./internal/xmltree/
	$(GO) test -run '^$$' -fuzz '^FuzzOpenWAL$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBlock$$' -fuzztime=10s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePattern$$' -fuzztime=10s ./internal/pattern/
	$(GO) test -run '^$$' -fuzz '^FuzzParseNumeric$$' -fuzztime=10s ./internal/pattern/
	$(GO) test -run '^$$' -fuzz '^FuzzParseXQuery$$' -fuzztime=10s ./internal/xquery/
	$(GO) test -run '^$$' -fuzz '^FuzzStackTreeJoin$$' -fuzztime=10s ./internal/exec/

# Open-loop load lane: Poisson arrivals against a sharded corpus at each rate
# of a fixed ladder, latency measured from arrival and split into queue wait
# and service time, for a healthy arm and one with a slow replica a shard;
# every step and each arm's knee go into BENCH_load.json. loadquick is the CI
# smoke variant: a 2-document corpus, two half-second steps, still failing on
# zero completions, a query error, an unclean drain, or a slow-replica step
# whose slowed files were never read (or a healthy step where some were).
loadbench:
	$(GO) run -buildvcs=true ./cmd/xqbench load -out BENCH_load.json

loadquick:
	$(GO) run ./cmd/xqbench load -quick

clean:
	rm -f BENCH_load.json BENCH_planner.json
