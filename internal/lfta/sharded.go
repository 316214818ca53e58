package lfta

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/hashtab"
)

// Sharded runs n ≥ 1 independent LFTA instances over one logical stream —
// Gigascope's deployment shape, where each network interface (or core)
// hosts its own LFTA and all of them feed the same HFTAs (Figure 1 of the
// paper); a single LFTA is the n = 1 case, which routes nothing and keeps
// the base seed. Records are partitioned by a hash of their full
// attribute vector, so all records of a group land on the same shard and
// per-shard partial aggregates stay disjoint until the HFTA merge; the
// merge is exact either way, since HFTA combination is associative and
// commutative.
//
// Each shard owns its own hash tables sized by the same allocation (each
// LFTA has its own memory in the architecture) and its own run buffers,
// so concurrent shards share no mutable state until the batched HFTA
// merge. ShardColumns is the one router: the engine uses it to split an
// admitted column batch across the shards it then drives in turn, and
// RunParallel to feed one goroutine per shard, in which case the run sink
// must be safe for concurrent use (hfta.(*Aggregator).MergeRun is).
type Sharded struct {
	shards []*Runtime

	// pipe is the pipelined RunParallel's routing state (SPSC rings and
	// recycled staging runs), built on first use and reused across runs
	// so steady-state ingest allocates nothing.
	pipe *pipeline

	// routeHash is ShardColumns's compact routing-hash scratch, grown on
	// demand and reused across batches.
	routeHash []uint64
}

// shardSeed derives the hash seed of one shard from the base seed via a
// splitmix64 stream. Consecutive shard indices therefore get seeds that
// differ in roughly half their bits, so the shards' table hash functions
// are independent (the old seed+i*constant scheme produced nearly
// identical seeds whose low-bit differences a weak mix could preserve).
func shardSeed(seed uint64, shard int) uint64 {
	x := seed + uint64(shard)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewSharded builds n shards, each executing cfg with its own tables of
// the given allocation. Shard hash seeds derive from seed so the shards
// use independent hash functions; the only shard of a 1-shard deployment
// takes seed itself, so it is New(cfg, alloc, aggs, seed, sink) table for
// table. A non-nil sink is installed on every shard as SetRunSink(sink, 0).
func NewSharded(cfg *feedgraph.Config, alloc cost.Alloc, aggs []AggSpec, seed uint64, sink RunSink, n int) (*Sharded, error) {
	if n <= 0 {
		return nil, fmt.Errorf("lfta: need at least one shard, got %d", n)
	}
	s := &Sharded{shards: make([]*Runtime, n)}
	for i := range s.shards {
		tableSeed := seed
		if n > 1 {
			tableSeed = shardSeed(seed, i)
		}
		rt, err := New(cfg, alloc, aggs, tableSeed, sink)
		if err != nil {
			return nil, err
		}
		s.shards[i] = rt
	}
	return s, nil
}

// SetRunSink installs the columnar transfer path on every shard (see
// Runtime.SetRunSink). Each shard keeps its own run buffers; with
// RunParallel the sink receives sealed runs concurrently and must be
// safe for concurrent use (hfta.(*Aggregator).MergeRun is).
func (s *Sharded) SetRunSink(fn RunSink, batchSize int) {
	for _, rt := range s.shards {
		rt.SetRunSink(fn, batchSize)
	}
}

// NumShards returns the number of LFTA instances.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard exposes one underlying runtime (for stats inspection).
func (s *Sharded) Shard(i int) *Runtime { return s.shards[i] }

// shardRouteSeed keys the routing hash. It must differ from every table
// seed (those derive from the user seed via shardSeed) so routing is not
// correlated with any table's bucket placement; a fixed constant keeps
// routing stable across runs, which checkpoint resume relies on.
const shardRouteSeed = 0x5bd1e995bc9e3779

// FlushEpoch flushes every shard.
func (s *Sharded) FlushEpoch() {
	for _, rt := range s.shards {
		rt.FlushEpoch()
	}
}

// TableStats merges the per-shard hashtab counters into one per-relation
// view, so the engine's diagnostics and adaptive flow-length estimation
// see the deployment as a whole. Call only while no shard is processing
// (e.g. between epochs, or from the single-threaded routing loop).
func (s *Sharded) TableStats() map[attr.Set]hashtab.Stats {
	out := make(map[attr.Set]hashtab.Stats)
	for _, rt := range s.shards {
		for rel, st := range rt.TableStats() {
			m := out[rel]
			m.Probes += st.Probes
			m.Hits += st.Hits
			m.Inserts += st.Inserts
			m.Collisions += st.Collisions
			m.Flushes += st.Flushes
			m.EvictedUpdates += st.EvictedUpdates
			m.EvictedEntries += st.EvictedEntries
			out[rel] = m
		}
	}
	return out
}

// ResetTableStats zeroes every shard's per-table counters (not contents).
func (s *Sharded) ResetTableStats() {
	for _, rt := range s.shards {
		rt.ResetTableStats()
	}
}

// Ops returns the summed operation counts of all shards.
func (s *Sharded) Ops() Ops {
	var total Ops
	for _, rt := range s.shards {
		o := rt.Ops()
		total.Probes += o.Probes
		total.Transfers += o.Transfers
		total.Records += o.Records
	}
	return total
}
