package hfta

import (
	"repro/internal/attr"
	"repro/internal/lfta"
)

// Batched columnar merge. Per-entry merges (Consume) pay one lock
// acquisition per partial even though a sealed eviction run from one
// LFTA shard typically touches only a handful of the keyShards lock
// shards. MergeRun restructures the work: pre-hash every key in
// the run (a chunk of it, if it is long) with no lock held, partition
// the entries by lock shard with a stable counting scatter, then acquire
// each touched shard's mutex ONCE and fold all of its entries under that
// single hold. With s LFTA shards flushing concurrently, lock traffic
// drops from O(entries) to O(touched shards) per run, and entries within
// a shard fold with the group table already hot.
//
// Correctness: the scatter is stable, so within each lock shard the
// entries apply in run order — and all of a group's partials hash to the
// same shard, so per-group combine order is exactly the per-entry
// order. Results are identical to n Consume calls (the MergeRun ≡
// per-entry equivalence suite pins this, including forced lock-shard
// collisions).

// runChunk bounds the entries partitioned at once, so the scratch is a
// fixed pair of stack arrays whatever the run length; a longer run folds
// chunk after chunk, which keeps every group's combine order.
const runChunk = lfta.DefaultEvictionBatch

// MergeRun folds a sealed columnar run of partials for one query
// relation and epoch: keys is flat n×arity, aggs flat n×NumAggs, in
// transfer order (exactly the layout lfta.RunSink delivers). Safe for
// concurrent use; the slices are not retained. Unknown relations are
// ignored, like Consume.
func (a *Aggregator) MergeRun(rel attr.Set, epoch uint32, keys []uint32, aggs []int64) {
	rs := a.state[rel]
	if rs == nil {
		return
	}
	arity, na := rs.arity, len(a.aggs)
	for n := len(keys) / arity; n > 0; n = len(keys) / arity {
		if n == 1 {
			rs.merge(keys[:arity], aggs, epoch, a.aggs)
			return
		}
		n = min(n, runChunk)
		rs.mergeChunk(epoch, keys[:n*arity], aggs[:n*na], a.aggs)
		keys, aggs = keys[n*arity:], aggs[n*na:]
	}
}

// mergeChunk folds at most runChunk entries (see the file comment).
func (rs *relState) mergeChunk(epoch uint32, keys []uint32, deltas []int64, aggs []lfta.AggSpec) {
	arity, na := rs.arity, len(aggs)
	var (
		hashBuf  [runChunk]uint64
		orderBuf [runChunk]int32
	)
	n := len(keys) / arity
	hash, order := hashBuf[:n], orderBuf[:n]

	// Pass 1 (no locks): hash every key, counting lock-shard occupancy.
	var counts [keyShards]int32
	for i := range hash {
		h := hashKey(keys[i*arity : (i+1)*arity])
		hash[i] = h
		counts[h&(keyShards-1)]++
	}

	// Stable counting scatter: prefix offsets, then entry indices in run
	// order within each shard's span.
	var offs [keyShards]int32
	var off int32
	for s := 0; s < keyShards; s++ {
		offs[s] = off
		off += counts[s]
	}
	cur := offs
	for i, h := range hash {
		s := h & (keyShards - 1)
		order[cur[s]] = int32(i)
		cur[s]++
	}

	// Pass 2: one lock hold per touched shard, folding its whole span.
	for s := 0; s < keyShards; s++ {
		cnt := counts[s]
		if cnt == 0 {
			continue
		}
		sh := &rs.shards[s]
		sh.mu.Lock()
		t := sh.table(epoch)
		for _, oi := range order[offs[s] : offs[s]+cnt] {
			i := int(oi)
			t.upsert(hash[i], keys[i*arity:(i+1)*arity], deltas[i*na:(i+1)*na], aggs)
		}
		sh.mu.Unlock()
	}
}

// RunSink returns the aggregator's batched columnar merge as an
// lfta.RunSink, the preferred hookup for runtimes with columnar
// eviction buffers (lfta.Runtime.SetRunSink).
func (a *Aggregator) RunSink() lfta.RunSink { return a.MergeRun }
