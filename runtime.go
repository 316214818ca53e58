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

// RunSink receives sealed columnar runs of evictions from a runtime's run
// buffers — the only way an entry reaches the HFTA; typically
// Aggregator.MergeRun. Runs alias runtime-owned memory valid only during
// the call.
type RunSink = lfta.RunSink

// AggSpec describes one aggregate slot (operation + input attribute;
// input -1 is count(*)).
type AggSpec = lfta.AggSpec

// CountStar is the count(*) aggregate list.
var CountStar = lfta.CountStar

// NewLFTA builds a low-level runtime for a configuration and allocation.
// A non-nil sink is installed as SetRunSink(sink, 0); with nil, transfers
// are counted and discarded until SetRunSink installs one.
func NewLFTA(cfg *Config, alloc Alloc, aggs []AggSpec, seed uint64, sink RunSink) (*LFTA, error) {
	return lfta.New(cfg, alloc, aggs, seed, sink)
}

// ShardedLFTA runs several independent LFTA instances over one stream,
// partitioned by group hash; see its RunParallel for multi-core execution.
type ShardedLFTA = lfta.Sharded

// NewShardedLFTA builds n shards each executing cfg, each with its own run
// buffers sealing into sink (nil: counted and discarded until SetRunSink).
// RunParallel calls the sink from every shard's goroutine, so it must be
// concurrency-safe; Aggregator.MergeRun is.
func NewShardedLFTA(cfg *Config, alloc Alloc, aggs []AggSpec, seed uint64, sink RunSink, n int) (*ShardedLFTA, error) {
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
