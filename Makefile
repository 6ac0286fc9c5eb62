# NewsWire build and experiment targets.

# Recipes pipe gating commands through tee (smoke, bench-smoke); with the
# default /bin/sh the pipeline's exit status is tee's, so a failed bench or
# equality check would pass CI green. pipefail restores propagation.
SHELL := bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go

.PHONY: all build test vet race fmt-check lint fuzz-smoke smoke bench bench-repo churn-seeds bench-smoke bench-mem bench-compare chaos chaos-smoke e8 e8-smoke e11 e11-smoke e12 obs-smoke tables tables-quick tables-big examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fail if any file needs gofmt (CI gate).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The repository checker (internal/lint: determinism and export rules,
# DESIGN.md §10), uncached so a cached pass never hides a new finding;
# then vet, and staticcheck when available (CI installs it; local runs
# skip silently if absent, keeping lint dependency-free). The wire has one
# codec: no command may link encoding/gob again.
lint:
	$(GO) test ./internal/lint -count=1
	$(GO) vet ./...
	@! $(GO) list -deps ./cmd/... | grep -x encoding/gob
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped"; fi

# Short coverage-guided runs of every fuzz target (one -fuzz per go test
# invocation): the wire codec, the predicate language (and its parser
# against the old one kept as an oracle), and the NITF codec against its
# encoding/xml oracle.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzRelay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzParsePredicate -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzPredicateRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzPredicateParserDifferential -fuzztime $(FUZZTIME)
	$(GO) test ./internal/news -run '^$$' -fuzz FuzzNITFDifferential -fuzztime $(FUZZTIME)

# Quick experiment smoke: the scale (E1), robustness/retry (E6), and
# convergence (E7) tables at reduced size, saved for artifact upload.
smoke: bin/newswire-bench
	mkdir -p artifacts
	bin/newswire-bench -quick -run E1,E6,E7 | tee artifacts/tables.txt

# Quick-size experiment tables + hot-path micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem

# The repository benchmark's harness (bench/ is a module of its own, so
# `go test ./...` from the root never reaches it): its tests, then five
# seconds each of the fanout workload (the data path on live sockets), of
# selective (the only workload on the predicate-routing path) and of
# sim_churn (the control plane on 1,024 simulated nodes), which must
# deliver every body intact.
bench-repo:
	cd bench && $(GO) test ./...
	bash bench/run.sh --workload fanout --seconds 5 | tail -n 1 | grep '"correct":true.*"failed":0,'
	bash bench/run.sh --workload signed --seconds 5 | tail -n 1 | grep '"correct":true.*"failed":0,'
	bash bench/run.sh --workload selective --seconds 5 | tail -n 1 | grep '"correct":true.*"failed":0,'
	bash bench/run.sh --workload sim_churn --seconds 5 | tail -n 1 | grep '"correct":true.*"failed":0,'

# Failed deliveries of the full sim_churn workload per seed, FROM to TO
# (about 30 s a seed): run it on two commits to see whether a change moved
# which seeds lose a delivery.
FROM ?= 1
TO ?= 24
churn-seeds:
	./scripts/churn_seeds.sh $(FROM) $(TO)

# Parallel-executor smoke: regenerate E1 (largest standard point: 4096
# nodes) under the parallel executor, gating on the serial-vs-parallel
# table equality check, and record wall/alloc numbers as BENCH_E1.json.
# The equality check is the gate; the timing numbers are informational.
# With -trace the gate also covers span-set equality (fingerprints),
# and the slowest deliveries' hop paths land in the JSON artifact. The
# gossip budget holds digest + delta bytes per round of the sim_churn
# schedule to within 2 % of the recorded count, the allocation budget its
# heap objects per node-round to within 5 %.
bench-smoke: bin/newswire-bench
	mkdir -p artifacts
	git show HEAD:artifacts/BENCH_E1.json > artifacts/BENCH_E1.baseline.json 2>/dev/null || echo '{}' > artifacts/BENCH_E1.baseline.json
	bin/newswire-bench -run E1 -workers -1 -verify-parallel -speedup -trace -json artifacts | tee artifacts/bench-smoke.txt
	$(GO) run ./cmd/benchgate -baseline artifacts/BENCH_E1.baseline.json -current artifacts/BENCH_E1.json | tee artifacts/bytes-gate.txt
	$(GO) test . -run TestGossipRoundTraceOverheadGuard -count=1 -v | tee artifacts/trace-guard.txt
	$(GO) test . -run TestChurnGossipBytesBudget -count=1 -v | tee artifacts/gossip-budget.txt
	$(GO) test . -run TestChurnRoundAllocationBudget -count=1 -v | tee artifacts/alloc-budget.txt
	$(GO) test . -run '^$$' -bench LiveGossip -benchtime 1x | tee artifacts/live-gossip.txt
	bin/newswire-bench -run E6 -quick -trace -json artifacts | tee artifacts/trace-smoke.txt

# Memory smoke: one virtual-leaf E1 row at 65,536 nodes with the heap
# profile snapshotted at the run's peak tick, gated on the per-node peak
# heap (peak_heap_bytes_per_node) against the committed baseline for the
# same size. This is the guard for the million-node memory architecture
# (slab rows, virtual leaves — DESIGN.md §9). The wider 25% bound absorbs
# allocator/runner variance that the deterministic byte gate does not
# have.
bench-mem: bin/newswire-bench
	mkdir -p artifacts
	git show HEAD:artifacts/BENCH_E1_N65536.json > artifacts/BENCH_E1_N65536.baseline.json 2>/dev/null || echo '{}' > artifacts/BENCH_E1_N65536.baseline.json
	bin/newswire-bench -nodes 65536 -workers -1 -memprofile artifacts/heap-peak-n65536.pprof -json artifacts/memsmoke | tee artifacts/bench-mem.txt
	cp artifacts/memsmoke/BENCH_E1.json artifacts/BENCH_E1_N65536.json
	$(GO) run ./cmd/benchgate -baseline artifacts/BENCH_E1_N65536.baseline.json -current artifacts/BENCH_E1_N65536.json -max-heap-regress 0.25 | tee artifacts/heap-gate.txt

# Compare the gossip-round (BenchmarkGossipRound*), churn-round
# (BenchmarkChurnRound, sim_churn as a go test), live fan-out
# (BenchmarkLiveFanout, whose allocs/op are heap objects per item) and
# simulator event-queue (BenchmarkEngineQueue, ns and allocs per event)
# micro-benchmarks between HEAD, exported with git archive, and the working
# tree. A churn round is not a steady state, so both sides run the same
# fixed 40 rounds; both fan-outs route the same 2,400 items. Uses
# benchstat when installed; otherwise falls back to the dependency-free
# comparer built into this repo (cmd/benchgate -compare).
bench-compare:
	mkdir -p artifacts
	rm -rf .benchbase && mkdir .benchbase
	git archive HEAD | tar -x -C .benchbase
	cd .benchbase && $(GO) test . -run '^$$' -bench 'BenchmarkGossipRound|BenchmarkChurnRound' -benchtime 40x -benchmem -count 3 > ../artifacts/bench-base.txt
	cd .benchbase && $(GO) test . -run '^$$' -bench 'BenchmarkLiveFanout$$' -benchtime 2400x -benchmem -count 3 >> ../artifacts/bench-base.txt
	cd .benchbase && $(GO) test ./internal/sim -run '^$$' -bench 'BenchmarkEngineQueue' -benchmem -count 3 >> ../artifacts/bench-base.txt
	$(GO) test . -run '^$$' -bench 'BenchmarkGossipRound|BenchmarkChurnRound' -benchtime 40x -benchmem -count 3 > artifacts/bench-head.txt
	$(GO) test . -run '^$$' -bench 'BenchmarkLiveFanout$$' -benchtime 2400x -benchmem -count 3 >> artifacts/bench-head.txt
	$(GO) test ./internal/sim -run '^$$' -bench 'BenchmarkEngineQueue' -benchmem -count 3 >> artifacts/bench-head.txt
	rm -rf .benchbase
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat artifacts/bench-base.txt artifacts/bench-head.txt; \
	else \
		$(GO) run ./cmd/benchgate -compare artifacts/bench-base.txt artifacts/bench-head.txt; \
	fi

# Full adversarial scenario suite (E10): every chaos scenario under the
# parallel executor with the serial-equality check, gated against the
# committed BENCH_E10.json baseline (per-scenario delivery floors and
# convergence bounds travel inside the artifact rows).
chaos: bin/newswire-bench
	mkdir -p artifacts
	git show HEAD:artifacts/BENCH_E10.json > artifacts/BENCH_E10.baseline.json 2>/dev/null || echo '{}' > artifacts/BENCH_E10.baseline.json
	bin/newswire-bench -run E10 -workers -1 -verify-parallel -json artifacts | tee artifacts/chaos.txt
	$(GO) run ./cmd/benchgate -baseline artifacts/BENCH_E10.baseline.json -current artifacts/BENCH_E10.json | tee artifacts/chaos-gate.txt

# PR-sized chaos gate: the two quickest scenarios (partition-heal and
# scramble-converge) with the same serial-equality and benchgate checks.
chaos-smoke: bin/newswire-bench
	mkdir -p artifacts
	git show HEAD:artifacts/BENCH_E10.json > artifacts/BENCH_E10.baseline.json 2>/dev/null || echo '{}' > artifacts/BENCH_E10.baseline.json
	bin/newswire-bench -scenario partition-heal,scramble-converge -workers -1 -verify-parallel -json artifacts/chaos-smoke | tee artifacts/chaos-smoke.txt
	$(GO) run ./cmd/benchgate -baseline artifacts/BENCH_E10.baseline.json -current artifacts/chaos-smoke/BENCH_E10.json | tee artifacts/chaos-smoke-gate.txt

# Routing-precision sweep (E8): predicate signatures vs. Bloom vs. the
# runner-built attribute-per-subscription strawman over one identical
# workload per subscription count,
# gated on equal recall, the predicate arm's false-positive cut (drops
# <= 50% of bloom's) and its gossip-bytes budget (<= 1.10x bloom), plus
# per-arm bytes drift against the committed BENCH_E8.json baseline.
e8: bin/newswire-bench
	mkdir -p artifacts
	git show HEAD:artifacts/BENCH_E8.json > artifacts/BENCH_E8.baseline.json 2>/dev/null || echo '{}' > artifacts/BENCH_E8.baseline.json
	bin/newswire-bench -run E8 -workers -1 -verify-parallel -json artifacts | tee artifacts/e8.txt
	$(GO) run ./cmd/benchgate -baseline artifacts/BENCH_E8.baseline.json -current artifacts/BENCH_E8.json | tee artifacts/e8-gate.txt

# PR-sized precision gate: the quick sweep (16 and 256 subject pools)
# under the same serial-equality and benchgate checks; baseline-only
# labels (the full run's 64/1024 pools) are skipped by the drift bound.
e8-smoke: bin/newswire-bench
	mkdir -p artifacts
	git show HEAD:artifacts/BENCH_E8.json > artifacts/BENCH_E8.baseline.json 2>/dev/null || echo '{}' > artifacts/BENCH_E8.baseline.json
	bin/newswire-bench -run E8 -quick -workers -1 -verify-parallel -json artifacts/e8-smoke | tee artifacts/e8-smoke.txt
	$(GO) run ./cmd/benchgate -baseline artifacts/BENCH_E8.baseline.json -current artifacts/e8-smoke/BENCH_E8.json | tee artifacts/e8-smoke-gate.txt

# Live-transport fan-out benchmark (E11): 10,000 loopback subscriber
# connections against one hub over real sockets, plus a full-decode
# verification phase. Hard gates: zero frame corruption, a
# sustained-throughput floor and a clean-p99 ceiling. Baseline deltas are
# informational (wall-clock socket numbers vary per machine).
e11: bin/newswire-loadgen
	mkdir -p artifacts
	git show HEAD:artifacts/BENCH_E11.json > artifacts/BENCH_E11.baseline.json 2>/dev/null || echo '{}' > artifacts/BENCH_E11.baseline.json
	bin/newswire-loadgen -subs 10000 -json artifacts | tee artifacts/e11.txt
	$(GO) run ./cmd/benchgate -baseline artifacts/BENCH_E11.baseline.json -current artifacts/BENCH_E11.json -min-msgs-per-sec 100000 -max-p99-ms 1500 | tee artifacts/e11-gate.txt

# PR-sized live-transport gate: 2,000 subscriber connections with short
# steps. Floors are sized for noisy shared CI runners; corruption stays a
# hard zero.
e11-smoke: bin/newswire-loadgen
	mkdir -p artifacts
	git show HEAD:artifacts/BENCH_E11.json > artifacts/BENCH_E11.baseline.json 2>/dev/null || echo '{}' > artifacts/BENCH_E11.baseline.json
	bin/newswire-loadgen -subs 2000 -pub-rates 5,20,100 -step 2s -verify-items 64 -json artifacts/e11-smoke | tee artifacts/e11-smoke.txt
	$(GO) run ./cmd/benchgate -baseline artifacts/BENCH_E11.baseline.json -current artifacts/e11-smoke/BENCH_E11.json -min-msgs-per-sec 30000 -max-p99-ms 2000 | tee artifacts/e11-smoke-gate.txt

# Observability overhead (E12): the BenchmarkGossipRound shape with the
# self-monitoring plane off / health-only / health+trace, gated on the
# enabled-vs-disabled overhead: <= 5% gossip bytes/round and <= 5%
# ns/round (drift-cancelling paired-ratio timing; see experiments.ObsArm).
e12: bin/newswire-bench
	mkdir -p artifacts
	git show HEAD:artifacts/BENCH_E12.json > artifacts/BENCH_E12.baseline.json 2>/dev/null || echo '{}' > artifacts/BENCH_E12.baseline.json
	bin/newswire-bench -run E12 -quick -json artifacts | tee artifacts/e12.txt
	$(GO) run ./cmd/benchgate -baseline artifacts/BENCH_E12.baseline.json -current artifacts/BENCH_E12.json | tee artifacts/e12-gate.txt

# Live observability smoke: 3-process mini-cluster, gossip-aggregated
# /cluster-health.json convergence on every node, one published item's
# cross-process trace joined by the loadgen collector with clock-offset
# corrected timestamps (scripts/obs_smoke.sh).
obs-smoke:
	mkdir -p artifacts
	./scripts/obs_smoke.sh

# Full-size experiment tables (EXPERIMENTS.md).
tables: bin/newswire-bench
	bin/newswire-bench

tables-quick: bin/newswire-bench
	bin/newswire-bench -quick

# Adds the 32k/131k-node E1/E7 points (slow, several GB of memory).
# GOGC=200 trades peak heap for ~15% less GC churn on the 131k point;
# -workers -1 lets hosts with spare cores run gossip windows in parallel.
tables-big: bin/newswire-bench
	GOGC=200 bin/newswire-bench -run E1,E7 -big -workers -1

bin/newswire-bench:
	$(GO) build -o bin/newswire-bench ./cmd/newswire-bench

bin/newswire-loadgen:
	$(GO) build -o bin/newswire-loadgen ./cmd/newswire-loadgen

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/technews
	$(GO) run ./examples/worldnews
	$(GO) run ./examples/resilience
	$(GO) run ./examples/monitor

clean:
	rm -rf bin .bench_build bench/out
