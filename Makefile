# Developer targets. `make check` is the tier-1 gate. `make test` runs
# every test and `make race` races every test of the internal packages and
# the daemon, so a new test is covered by both whatever it is called.

GO ?= go

.PHONY: build test vet fmt race fuzz-short bench-module cross examples check bench loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt-clean tree, bench/ included.
fmt:
	test -z "$$(gofmt -l .)"

# Race-detect every internal package and the daemon (which drives the
# engine's columnar feed from an open trace file): the sharded runtime's
# RunParallel fan-out, the runtime run buffers, the HFTA's per-epoch
# logs, the persister goroutine, and every chaos, equivalence, crash-point,
# checkpoint, window and read-out suite on top of them. CI runs it a second
# time with MAGG_SIMD=off, so the generic SWAR kernels are raced too. The
# root package's tests (RunParallel and the engine facade) run with
# -short, which skips TestShardedParallelSpeedup's timing assertion.
race:
	$(GO) test -race ./internal/... ./cmd/maggd
	$(GO) test -race -short .

# Replay the checked-in fuzz seed corpora (testdata/fuzz/...) without
# live fuzzing. Use `go test -fuzz FuzzCheckpointDecode
# -fuzzminimizetime 50x ./internal/core` (or FuzzSegmentDecode in
# ./internal/epochstore, FuzzDecodePartial in ./internal/sketch) for a
# live session. CI also runs three 30 s live sessions: FuzzCheckpointDecode,
# FuzzReadTrace (./internal/stream, -fuzzminimizetime 50x) and FuzzComposer
# (./internal/hfta, which minimizes slowly: -fuzzminimizetime 1s).
fuzz-short:
	$(GO) test -run 'Fuzz' ./internal/core ./internal/stream ./internal/feedgraph ./internal/query ./internal/epochstore ./internal/sketch ./internal/hfta

# bench/ is a nested module that ./... does not reach; it assembles the
# engine's epoch close from the layers' public entry points
# (Aggregator.Rows/Drop/MergeRun, PaneInput.Rows and PaneInput.Sketches,
# AppendKeyBytes, sketch.NewPartial and Partial.AppendBinary), so it is
# where an hfta, sketch or core API change breaks first.
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

# Cross-build the architecture-gated kernels the amd64 host never
# compiles: arm64 vets the NEON tag scan and selection kernels; riscv64
# vets and builds the portable tree, where fastProbeArch is false and
# every table commits through commitProbe.
cross:
	GOARCH=arm64 $(GO) vet ./internal/...
	GOARCH=riscv64 $(GO) vet ./internal/... && GOARCH=riscv64 $(GO) build ./...

# Run every examples/* main end to end (each takes about a second); a
# non-zero exit fails the target. Their stdout is discarded, their stderr
# (where a failing example reports) is not.
examples:
	@for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

check: build vet fmt test race fuzz-short bench-module cross examples

# Quick perf numbers for the root micro-benchmarks: the engine's admission
# over in-memory column batches, the HFTA merge + read-out, and the budget
# lane's one-record cascade (see docs/PERF.md; bench/run.sh is the
# end-to-end measure).
bench:
	$(GO) test -run xxx -bench 'BenchmarkEngineThroughput|BenchmarkHFTAMerge|BenchmarkRuntimeRecord' -benchmem .

# Non-test Go lines per internal package and command, and for the repo
# outside bench/ — the number ROADMAP aim 2 tracks.
loc:
	@for d in internal/*/ cmd/*/; do printf '%-24s %6d\n' $$d $$(find $$d -name '*.go' -not -name '*_test.go' | xargs cat | wc -l); done
	@printf '%-24s %6d\n' 'repo (outside bench/)' $$(find . -path ./bench -prune -o -name '*.go' -not -name '*_test.go' -print | xargs cat | wc -l)
