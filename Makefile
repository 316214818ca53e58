# Developer targets. `make check` is the tier-1 gate; `make race` runs the
# race detector over the concurrent hot path (parallel LFTA shards,
# per-shard run buffers, sharded HFTA merge).

GO ?= go

.PHONY: build test vet race fuzz-short crash-test windows-test columnar-test bench-module check bench loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detect every internal package and the daemon (which drives the
# engine's columnar feed from an open trace file), then re-run the sharded
# chaos, equivalence, and checkpoint suites specifically: the sharded runtime's
# RunParallel fan-out, the runtime run buffers, the lock-sharded
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
# ReadColumns ≡ ReadBatch on every source (stream); the columnar probe ≡
# the record-major batch probe, saturated and selective, and the columnar
# hashes ≡ HashWords (hashtab); ProcessColumns / ProcessColumnsSel ≡
# scalar Process, the routed sharded pipeline at 1/2/4/8 shards vs
# sequential + oracle, and ShardColumns ≡ ShardOf (lfta); MergeRun ≡
# per-entry Consume including forced lock-shard collisions and concurrent
# folds, and the sorted read-out ≡ its brute-force model, also concurrent
# with MergeRun (hfta); the selection-vector kernels vs their generic
# forms (selvec); compiled filters vs the interpreted DNF walk, scalar and
# columnar, with adaptive reordering (query); and ProcessColumnBatch vs
# the scalar engine loop and vs a brute-force oracle across batch-boundary
# epoch splits, mixed feeds and shard counts — with and without a budget
# (same drops, same checkpoint bytes, kill + restore) (core).
# -run selects by name prefix: a new columnar equivalence test is raced
# here only if it is called TestColumnBatch… or TestColumnar….
columnar-test:
	$(GO) test -race -count=1 -run 'TestReadColumns|TestColumnBatch|TestColumnar|TestProbeColumns|TestHashColumns|TestMergeRun|TestRows|TestSelVec|TestFilter|TestNoWhere' ./internal/stream ./internal/hashtab ./internal/lfta ./internal/hfta ./internal/core ./internal/selvec ./internal/query

# bench/ is a nested module that ./... does not reach; it assembles the
# engine's epoch close from the layers' public entry points, so it is
# where an hfta or core API change breaks first.
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

check: build vet test race fuzz-short crash-test windows-test columnar-test bench-module

# Quick perf numbers for the engine hot path (see docs/PERF.md).
bench:
	$(GO) test -run xxx -bench 'BenchmarkEngineThroughput|BenchmarkHFTAMerge|BenchmarkSharded|BenchmarkRuntimeRecord|BenchmarkLFTAProbe' -benchmem .

# Non-test Go lines per internal package and command, and for the repo
# outside bench/ — the number ROADMAP aim 2 tracks.
loc:
	@for d in internal/*/ cmd/*/; do printf '%-24s %6d\n' $$d $$(find $$d -name '*.go' -not -name '*_test.go' | xargs cat | wc -l); done
	@printf '%-24s %6d\n' 'repo (outside bench/)' $$(find . -path ./bench -prune -o -name '*.go' -not -name '*_test.go' -print | xargs cat | wc -l)
