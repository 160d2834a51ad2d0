# Build, test and benchmark entry points. `make check` is the CI gate:
# go vet plus the full suite under the race detector. `make bench` runs the
# tier-1 suite under the race detector first, then emits benchmark results
# as streamed test2json events into BENCH_parallel.json, the plan-cache
# cold/warm comparison into BENCH_plancache.json and the value-index pushdown
# comparison into BENCH_content.json. `make benchquick` smoke-runs the key
# benchmarks at one iteration each — the result-path, /query-encode and
# plan_cold-execution layer lanes, the lanes under them (Stack-Tree Desc/Anc
# by input shape and axis, posting-block decode, numeric predicate parse)
# and the write-side lanes (XML parse, document image encode and
# decode, segment staging, store version assembly, value probes at 2 and 256
# segments, the four-write corpus cycle and a four-shard recovery on disk
# WALs) included — plus the allocation regression
# guards: a CI-friendly check that they still build, run and validate their
# counts. `make fuzzquick` runs the seven Fuzz* targets for ten seconds each.
# `make loadbench` runs the open-loop corpus serving benchmark (Poisson
# arrivals, p50/p95/p99 under load) into BENCH_corpus.json; `make loadquick`
# is its short CI variant (run on the replicated, hedged path so routing
# stays covered). `make plannerbench` runs the planning-cost lane — optimize
# time vs resulting execution time and regret (execution time over the best
# plan any method found) for every method, on the Table-3 workloads, two
# stress shapes and the eight plan_cold twigs — into BENCH_planner.json; `make
# plannerquick` is its CI smoke variant, followed by one iteration of the
# optimizer-search layer lane (BenchmarkSearchPlanCold: ns/op, B/op, allocs/op
# and plans/op for DP, DPP and the DPAPs on 12-13-node twigs). `make replicabench` compares hedged vs unhedged tail
# latency with one slow replica per shard into BENCH_replica.json;
# `make replicachaos` is the replica fault-injection suite under the race
# detector (a dead replica per shard must never change query results).
# `make walchaos` is the write-path crash suite: the kill-point matrix over
# every WAL write ordinal, torn-tail recovery, and the corpus ingestion
# suite, all under the race detector. `make churnbench` measures query
# latency under concurrent WAL-committed document churn into
# BENCH_churn.json; `make churnquick` is its CI smoke variant. `make loc`
# prints the code-size table CHANGES.md quotes.
#
# BENCH selects the benchmark regexp (default: the partition-parallel
# executor benches; use BENCH=. for the full table/figure suite — slow).

GO    ?= go
BENCH ?= Parallel

.PHONY: all build test test-race vet check loc chaos replicachaos walchaos bench benchquick fuzzquick loadbench loadquick replicabench replicaquick plannerbench plannerquick churnbench churnquick clean

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
# non-test Go in the root package, internal/core, internal/exec and
# cmd/xqserve, then in the whole module (benchmark/ is its own).
loc:
	@for d in . internal/core internal/exec cmd/xqserve; do \
		printf '%-14s %s\n' $$d $$(cat $$(ls $$d/*.go | grep -v _test.go) | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l); \
	done
	@printf '%-14s %s\n' total $$(cat $$(ls *.go internal/*/*.go cmd/*/*.go | grep -v _test.go) | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l)

# Fault-injection differential suite under the race detector: every
# optimizer method over an injected-fault store must return the exact
# fault-free result or a typed error — never a wrong answer or a panic.
chaos:
	$(GO) test -race -run 'TestChaos|TestRunRecovers|TestAdmission|TestDrain|TestQueryPath|TestWriteMetricsResilience' .
	$(GO) test -race -run 'ParallelExecReleasesPins|ParallelExecRecoversWorkerPanics|PropagatesStorageErrors' ./internal/exec/
	$(GO) test -race ./internal/faultfs/ ./internal/admission/

# Replica fault-injection suite: kill one replica of every shard, hedge,
# fail over, recover through probation probes — all under the race detector,
# with results compared byte-for-byte against a fault-free corpus.
replicachaos:
	$(GO) test -race -count=1 -run 'TestCorpusReplica|TestCorpusLimitErrorRace' .
	$(GO) test -race -count=1 ./internal/replica/

# Write-path crash suite under the race detector: crash the process at
# every WAL write ordinal (and with a torn final write, and with a crashed
# store file) across all five paper methods; recovery must land on a
# committed prefix every time.
walchaos:
	$(GO) test -race -count=1 -run 'TestWALChaos|TestWAL|TestIngest|TestOpenDatabase|TestCorpusIngest' .
	$(GO) test -race -count=1 ./internal/storage/

bench: test-race
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -json . | tee BENCH_parallel.json
	$(GO) test -run '^$$' -bench 'PlanCache' -benchmem -json . | tee BENCH_plancache.json
	$(GO) test -run '^$$' -bench 'ContentIndex' -benchmem -json . | tee BENCH_content.json
	$(GO) test -run '^$$' -bench 'ExecPlanColdTwig' -benchmem .
	$(GO) run ./cmd/xqbench -plannerbench
	$(GO) run ./cmd/xqbench -loadbench
	$(GO) run ./cmd/xqbench -churnbench

# Planning-cost lane: optimize time, resulting execution time and regret for
# every optimizer method (DP, DPP, DPAP-EB, DPAP-LD, FP, Greedy) on the
# Table-3 workloads, deep-chain/wide-fanout stress shapes and the eight
# plan_cold twigs, into BENCH_planner.json. plannerquick is the CI smoke
# variant.
plannerbench:
	$(GO) run ./cmd/xqbench -plannerbench

plannerquick:
	$(GO) run ./cmd/xqbench -plannerquick -plannerout ""
	$(GO) test -run '^$$' -bench 'SearchPlanCold' -benchtime=1x ./internal/core/

benchquick:
	$(GO) test -run '^$$' -bench 'ParallelExecute|PlanCache|ContentIndex|ObservabilityOverhead|CorpusResultPath|ExecPlanColdTwig|CorpusWriteCycle|CorpusRecover' -benchtime=1x .
	$(GO) test -run '^$$' -bench 'ServeQueryEncode' -benchtime=1x ./cmd/xqserve/
	$(GO) test -run '^$$' -bench 'Parse$$|Image' -benchtime=1x ./internal/xmltree/
	$(GO) test -run '^$$' -bench 'StageSegment|StoreVersion|ForestProbe|DecodeBlock' -benchtime=1x ./internal/storage/
	$(GO) test -run '^$$' -bench 'StackTree' -benchtime=1x ./internal/exec/
	$(GO) test -run '^$$' -bench 'ParseNumeric' -benchtime=1x ./internal/pattern/
	$(GO) test -run 'TestBatchedProbeAllocs|TestResultPathAllocs|TestExecScratchAllocs' -v .

# Every fuzz target for ten seconds each (go test takes one -fuzz target and
# one package a run): the XML parser against its encoding/xml oracle, the
# document image decoder (both format versions) and the WAL scan (both record
# forms) on arbitrary bytes, posting-block decode against a plain
# binary.Uvarint loop, the pattern parser (what parses re-parses from
# String() to the same Fingerprint), numeric predicate values against
# strconv.ParseFloat bit for bit, and the XQuery compiler. The WAL target's
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

# Open-loop corpus serving benchmark: Poisson arrivals against a sharded
# corpus, latency measured from arrival (queueing included), results into
# BENCH_corpus.json. loadquick is the CI smoke variant: small corpus, short
# load phase, still asserting completed queries and a clean drain.
loadbench:
	$(GO) run ./cmd/xqbench -loadbench

loadquick:
	$(GO) run ./cmd/xqbench -loadbench -loaddocs 4 -loadshards 2 -loadrate 50 -loadduration 1s -loadclients 4 -loadreplicas 2

# Hedged-vs-unhedged tail comparison: a replicated corpus with one slow
# replica per shard serves the same Poisson load twice, into
# BENCH_replica.json. replicaquick is the CI smoke variant.
replicabench:
	$(GO) run ./cmd/xqbench -replicabench

replicaquick:
	$(GO) run ./cmd/xqbench -replicabench -loaddocs 2 -loadshards 1 -loadrate 100 -loadduration 500ms -loadclients 4 -replicaslow 200us -replicahedge 1ms

# Ingestion churn lane: an open-loop query stream and an open-loop mutation
# stream (WAL-committed inserts/replaces/deletes of whole documents) against
# one writable corpus, into BENCH_churn.json. The run fails on any query or
# mutation error, on a ledger/corpus mismatch, or if incremental statistics
# diverge from a full rebuild. churnquick is the CI smoke variant.
churnbench:
	$(GO) run ./cmd/xqbench -churnbench

churnquick:
	$(GO) run ./cmd/xqbench -churnquick -churnout ""

clean:
	rm -f BENCH_parallel.json BENCH_plancache.json BENCH_content.json BENCH_corpus.json BENCH_replica.json BENCH_planner.json BENCH_churn.json
