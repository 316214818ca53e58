package magg

import (
	"repro/internal/epochstore"
	"repro/internal/hfta"
	"repro/internal/lfta"
)

// Lower-level runtime building blocks, for callers that want to drive the
// two levels directly instead of through Engine: custom sinks, multiple
// LFTA shards (Gigascope's one-LFTA-per-interface deployment), or
// bounded-capacity simulation.

// LFTA executes one configuration at the low level: raw-table probes,
// cascading evictions, end-of-epoch flushes, exact operation counts.
type LFTA = lfta.Runtime

// Eviction is an entry transferred from the LFTA to the HFTA.
type Eviction = lfta.Eviction

// Sink receives evictions, typically an HFTA aggregator's Sink.
type Sink = lfta.Sink

// RunSink receives sealed columnar runs of evictions from a runtime's run
// buffers (LFTA.SetRunSink); typically Aggregator.MergeRun. Runs alias
// runtime-owned memory valid only during the call.
type RunSink = lfta.RunSink

// AggSpec describes one aggregate slot (operation + input attribute;
// input -1 is count(*)).
type AggSpec = lfta.AggSpec

// CountStar is the count(*) aggregate list.
var CountStar = lfta.CountStar

// NewLFTA builds a low-level runtime for a configuration and allocation.
func NewLFTA(cfg *Config, alloc Alloc, aggs []AggSpec, seed uint64, sink Sink) (*LFTA, error) {
	return lfta.New(cfg, alloc, aggs, seed, sink)
}

// ShardedLFTA runs several independent LFTA instances over one stream,
// partitioned by group hash; see its RunParallel for multi-core execution.
type ShardedLFTA = lfta.Sharded

// NewShardedLFTA builds n shards each executing cfg. For the fast path,
// pass a nil sink and install per-shard run buffers with SetRunSink
// (Aggregator.MergeRun is a concurrency-safe run sink); a plain
// concurrency-safe Sink also works with RunParallel.
func NewShardedLFTA(cfg *Config, alloc Alloc, aggs []AggSpec, seed uint64, sink Sink, n int) (*ShardedLFTA, error) {
	return lfta.NewSharded(cfg, alloc, aggs, seed, sink, n)
}

// Aggregator is the HFTA: it merges evicted partials into exact per-epoch
// query answers.
type Aggregator = hfta.Aggregator

// NewAggregator builds an HFTA for the query relations and aggregates.
func NewAggregator(queries []Relation, aggs []AggSpec) (*Aggregator, error) {
	return hfta.New(queries, aggs)
}

// Reference computes exact query answers directly over records — the
// oracle the two-level pipeline is verified against.
func Reference(recs []Record, queries []Relation, aggs []AggSpec, epochLen uint32) []Row {
	return hfta.Reference(recs, queries, aggs, epochLen)
}

// RowsEqual reports whether two row sets are identical.
func RowsEqual(a, b []Row) bool { return hfta.Equal(a, b) }

// EpochStoreFS is the filesystem interface all EpochStore I/O goes
// through; substitute one (e.g. NewEpochStoreFaultFS) to test durability
// under injected failures.
type EpochStoreFS = epochstore.FS

// EpochStoreFaults select the failures a fault-injecting filesystem
// returns: every-Nth write/short-write/fsync/rename/open errors, plus a
// simulated power cut after a byte budget.
type EpochStoreFaults = epochstore.Faults

// NewEpochStoreFaultFS wraps inner (nil for the real filesystem) with
// seeded, deterministic fault injection for crash testing an EpochStore.
func NewEpochStoreFaultFS(inner EpochStoreFS, f EpochStoreFaults) *epochstore.FaultFS {
	return epochstore.NewFaultFS(inner, f)
}
