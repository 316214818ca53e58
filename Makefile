# Developer targets. `make check` is the tier-1 gate; `make race` runs the
# race detector over the concurrent hot path (parallel LFTA shards,
# batched eviction buffers, sharded HFTA merge).

GO ?= go

.PHONY: build test vet race fuzz-short crash-test windows-test columnar-test bench-module check bench bench-json bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detect every internal package and the daemon (which drives the
# engine's columnar feed from an open trace file), then re-run the sharded
# chaos, equivalence, and checkpoint suites specifically: the sharded runtime's
# RunParallel fan-out, the runtime eviction buffers, the lock-sharded
# HFTA merge, and the engine's unified budget / checkpoint-v2 paths on
# top of them, plus the shared epoch read-out (allocation bound and
# retained-row immutability).
race:
	$(GO) test -race ./internal/... ./cmd/maggd
	$(GO) test -race -run 'TestChaos|TestSharded|TestCheckpoint|TestKillRestore|TestReadout' -count=1 ./internal/core

# Replay the checked-in fuzz seed corpora (testdata/fuzz/...) without
# live fuzzing — what CI runs. Use `go test -fuzz FuzzCheckpointDecode
# -fuzzminimizetime 50x ./internal/core` (or FuzzSegmentDecode in
# ./internal/epochstore, FuzzDecodePartial in ./internal/sketch) for a
# live session.
fuzz-short:
	$(GO) test -run 'Fuzz' ./internal/core ./internal/stream ./internal/feedgraph ./internal/query ./internal/epochstore ./internal/sketch

# The durability crash-point property suites: the epoch store killed at
# ~100 byte offsets per seed (including during recovery), the engine on
# a dying disk, and the checkpoint + store-replay resume equivalences.
crash-test:
	$(GO) test -run 'TestCrashPoint|TestCrashDuring|TestEngineCrashPoints|TestKillRestoreWithStore|TestReplayMatches' -count=1 ./internal/epochstore ./internal/core

# The sliding-window / sketch suites on their own: the oracle-equivalence
# grid (pane-composed windows vs the brute-force oracle, clean and under
# chaos), shard equivalence, kill+restore byte-identity, the chaos window
# ledger identity, and the sketch merge laws + error bounds.
windows-test:
	$(GO) test -run 'TestWindowed|TestGoldenWindowed|TestChaosWindowLedger|TestLateFirstRecord|TestWindowHandler|TestSketchOnly' -count=1 ./internal/core
	$(GO) test -count=1 ./internal/hfta ./internal/sketch
	$(GO) test -run 'TestWindow|TestSketch' -count=1 ./internal/query

# The columnar-pipeline equivalence suite under the race detector:
# ReadColumns ≡ ReadBatch on every source, columnar probes ≡ batch
# probes (victims, stats, contents), ProcessColumns ≡ Process, the fully
# columnar routed sharded path at 1/2/4/8 shards vs sequential + oracle,
# MergeRun ≡ per-entry Consume including forced lock-shard collisions
# and concurrent folds, the sorted read-out ≡ its brute-force model and
# concurrent with MergeRun, and the vectorized WHERE stack: selection-vector
# kernels vs their generic forms, compiled filters vs the interpreted
# DNF walk (scalar and columnar, with adaptive reordering), selection-
# aware probes/routing vs compacted dense runs, and ProcessColumnBatch
# vs the scalar engine loop across batch-boundary epoch splits — with and
# without a budget (same drops, same checkpoint bytes, kill + restore).
# -run selects by name prefix: a new columnar equivalence test is raced
# here only if it is called TestColumnBatch… or TestColumnar….
columnar-test:
	$(GO) test -race -count=1 -run 'TestReadColumns|TestColumnBatch|TestColumnar|TestProbeColumns|TestHashColumns|TestMergeRun|TestRows|TestSelVec|TestFilter|TestInterpretedFilter|TestNoWhere' ./internal/stream ./internal/hashtab ./internal/lfta ./internal/hfta ./internal/core ./internal/selvec ./internal/query

# bench/ is a nested module that ./... does not reach; it assembles the
# engine's epoch close from the layers' public entry points, so it is
# where an hfta or core API change breaks first.
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

check: build vet test race fuzz-short crash-test windows-test columnar-test bench-module

# Quick perf numbers for the engine hot path (see docs/PERF.md).
bench:
	$(GO) test -run xxx -bench 'BenchmarkEngineThroughput|BenchmarkHFTAMerge|BenchmarkSharded|BenchmarkRuntimeRecord|BenchmarkLFTAProbe' -benchmem .

# Machine-readable summary, the BENCH_PR<N>.json trajectory format.
bench-json:
	$(GO) run ./cmd/maggbench -json BENCH_PR10.json

# Diff two bench-json reports; fails on a ns/op regression beyond
# THRESHOLD (fractional, default 10%). CI widens it for its short
# smoke run. Usage: make bench-compare OLD=BENCH_PR4.json NEW=BENCH_PR5.json
THRESHOLD ?= 0.10
bench-compare:
	$(GO) run ./cmd/maggbench -compare -threshold $(THRESHOLD) $(OLD) $(NEW)
