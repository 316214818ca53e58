package hfta

import (
	"slices"

	"repro/internal/attr"
)

// Sorted row read-out. Rows copies the epoch's dense key and aggregate
// columns out of every lock shard (one memmove each under the shard's
// lock, so concurrent merges into other epochs wait for a copy, never for
// a sort), orders a permutation of the copied groups outside any lock,
// and gathers through it into exactly three allocations: one flat key
// array, one flat aggregate array, and the []Row whose Key/Aggs fields
// are sub-slices of the two. The copies and the sort's buffers are pooled
// scratch; nothing in the result aliases the store or the scratch, so it
// stays valid and unchanged after Drop.

// readScratch is the scratch of one Rows call. Idle ones wait on the
// aggregator's freelist (not a sync.Pool: the collector empties those,
// and at one read-out per epoch the scratch would be rebuilt from zero
// capacity whenever two collections fit into an epoch).
type readScratch struct {
	keys           []uint32 // copied key columns, lock shard after lock shard
	aggs           []int64  // copied aggregate columns, same group order
	perm, permTmp  []uint32 // group numbers into keys/aggs, sorted by key
	packed, pkdTmp []uint64 // packSmall of each key, moved along with perm
}

func (a *Aggregator) takeScratch() *readScratch {
	a.scratchMu.Lock()
	defer a.scratchMu.Unlock()
	if n := len(a.scratch); n > 0 {
		sc := a.scratch[n-1]
		a.scratch = a.scratch[:n-1]
		return sc
	}
	return &readScratch{}
}

func (a *Aggregator) putScratch(sc *readScratch) {
	a.scratchMu.Lock()
	a.scratch = append(a.scratch, sc)
	a.scratchMu.Unlock()
}

// sized returns s with length n, reallocating only when capacity is short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Rows finalizes and returns the answers for one query and epoch, sorted
// by group key (numeric, per attribute). The rows are the caller's: the
// state for that (query, epoch) remains available, and independent of
// them, until Drop is called.
func (a *Aggregator) Rows(rel attr.Set, epoch uint32) []Row {
	rs := a.state[rel]
	if rs == nil {
		return nil
	}
	sc := a.takeScratch()
	defer a.putScratch(sc)
	sc.keys, sc.aggs = sc.keys[:0], sc.aggs[:0]
	for i := range rs.shards {
		sh := &rs.shards[i]
		sh.mu.Lock()
		if t := sh.epochs[epoch]; t != nil {
			sc.keys = append(sc.keys, t.Keys...)
			sc.aggs = append(sc.aggs, t.aggs...)
		}
		sh.mu.Unlock()
	}
	arity, na := rs.arity, len(a.aggs)
	n := len(sc.keys) / arity
	if n == 0 {
		return nil
	}
	sc.perm = sized(sc.perm, n)
	for g := range sc.perm {
		sc.perm[g] = uint32(g)
	}
	if arity <= smallArity {
		sc.packed = sized(sc.packed, n)
		for g := range sc.packed {
			sc.packed[g] = packSmall(sc.keys[g*arity : (g+1)*arity])
		}
		sc.radixSort()
	} else {
		src := sc.keys
		slices.SortFunc(sc.perm, func(x, y uint32) int {
			return slices.Compare(src[int(x)*arity:int(x+1)*arity], src[int(y)*arity:int(y+1)*arity])
		})
	}
	keys := make([]uint32, n*arity)
	aggs := make([]int64, n*na)
	rows := make([]Row, n)
	for i, g := range sc.perm {
		k := keys[i*arity : (i+1)*arity : (i+1)*arity]
		v := aggs[i*na : (i+1)*na : (i+1)*na]
		copy(k, sc.keys[int(g)*arity:])
		copy(v, sc.aggs[int(g)*na:])
		rows[i] = Row{Rel: rel, Epoch: epoch, Key: k, Aggs: v}
	}
	return rows
}

// radixSort orders perm by the parallel keys in packed with a stable LSD
// radix sort, one byte per pass. A byte position at which every key holds
// the same value cannot reorder anything, so its pass is skipped: keys
// drawn from 16-bit attribute domains sort in four passes, not eight.
func (sc *readScratch) radixSort() {
	n := len(sc.perm)
	keys, perm := sc.packed, sc.perm
	var varying uint64
	for _, k := range keys {
		varying |= k ^ keys[0]
	}
	keysTmp, permTmp := sized(sc.pkdTmp, n), sized(sc.permTmp, n)
	for shift := 0; shift < 64; shift += 8 {
		if (varying>>shift)&0xff == 0 {
			continue
		}
		var next [256]int
		for _, k := range keys {
			next[(k>>shift)&0xff]++
		}
		pos := 0
		for b, c := range next {
			next[b] = pos
			pos += c
		}
		for i, k := range keys {
			j := next[(k>>shift)&0xff]
			next[(k>>shift)&0xff] = j + 1
			keysTmp[j], permTmp[j] = k, perm[i]
		}
		keys, keysTmp, perm, permTmp = keysTmp, keys, permTmp, perm
	}
	sc.packed, sc.pkdTmp, sc.perm, sc.permTmp = keys, keysTmp, perm, permTmp
}
