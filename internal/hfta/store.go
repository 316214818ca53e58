package hfta

import (
	"sync"

	"repro/internal/lfta"
)

// keyShards is the number of lock shards per query relation: the low
// shardBits bits of the key hash select the shard, the bits above them
// the slot in that shard's group table.
const (
	shardBits = 4
	keyShards = 1 << shardBits
)

// groupTable holds one epoch's groups for one lock shard of one relation,
// whatever the arity: dense columns in insertion order (keys flat
// n×arity, aggs flat n×len(aggs)) plus an open-addressed slot index over
// them (0 = empty, else 1 + group number; linear probing at load ≤ 1/2).
// The columns are what Rows copies out; a group's accumulator is its
// stretch of aggs, with no per-group allocation or pointer.
type groupTable struct {
	keys  []uint32
	aggs  []int64
	slots []uint32
	n     int
}

// upsert folds one partial into its group, appending the group
// (initialized to the aggregate identities) when h/key is new.
func (t *groupTable) upsert(h uint64, key []uint32, deltas []int64, aggs []lfta.AggSpec) {
	arity, na := len(key), len(aggs)
	if 2*(t.n+1) > len(t.slots) {
		t.grow(arity)
	}
	mask := uint64(len(t.slots) - 1)
probe:
	for i := (h >> shardBits) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = uint32(t.n) + 1
			t.n++
			t.keys = append(t.keys, key...)
			for j, spec := range aggs {
				t.aggs = append(t.aggs, spec.Op.Combine(spec.Op.Identity(), deltas[j]))
			}
			return
		}
		g := int(s - 1)
		for j, v := range t.keys[g*arity : (g+1)*arity] {
			if v != key[j] {
				continue probe
			}
		}
		acc := t.aggs[g*na : (g+1)*na]
		for j, spec := range aggs {
			acc[j] = spec.Op.Combine(acc[j], deltas[j])
		}
		return
	}
}

// grow doubles the slot index and re-enters every group from the key
// column (hashes are not stored).
func (t *groupTable) grow(arity int) {
	t.slots = make([]uint32, max(16, 2*len(t.slots)))
	mask := uint64(len(t.slots) - 1)
	for g := 0; g < t.n; g++ {
		i := (hashKey(t.keys[g*arity:(g+1)*arity]) >> shardBits) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(g) + 1
	}
}

// relShard is one lock shard of a relation's state: the live epochs'
// group tables plus the emptied tables of dropped epochs. A recycled table
// keeps its column and index capacity, so a steady Drop-after-emit
// cadence stops allocating once capacities reach the per-epoch group
// count.
type relShard struct {
	mu     sync.Mutex
	epochs map[uint32]*groupTable
	pool   []*groupTable
}

// table returns the epoch's group table, taking a pooled or fresh one for
// a new epoch. Caller holds the shard lock.
func (sh *relShard) table(epoch uint32) *groupTable {
	t := sh.epochs[epoch]
	if t == nil {
		if n := len(sh.pool); n > 0 {
			t, sh.pool = sh.pool[n-1], sh.pool[:n-1]
		} else {
			t = &groupTable{}
		}
		sh.epochs[epoch] = t
	}
	return t
}

// release empties the epoch's table into the pool: two length resets and
// a clear of the slot index. Caller holds the shard lock.
func (sh *relShard) release(epoch uint32) {
	t := sh.epochs[epoch]
	if t == nil {
		return
	}
	t.keys, t.aggs, t.n = t.keys[:0], t.aggs[:0], 0
	clear(t.slots)
	sh.pool = append(sh.pool, t)
	delete(sh.epochs, epoch)
}

// relState is the merge state of one query relation.
type relState struct {
	arity  int
	shards [keyShards]relShard
}

// merge folds one partial (key, deltas) into the epoch's group state.
// Safe for concurrent use; key and deltas are not retained. A key of the
// wrong arity would shear the flat key column and is ignored.
func (rs *relState) merge(key []uint32, deltas []int64, epoch uint32, aggs []lfta.AggSpec) {
	if len(key) != rs.arity {
		return
	}
	h := hashKey(key)
	sh := &rs.shards[h&(keyShards-1)]
	sh.mu.Lock()
	sh.table(epoch).upsert(h, key, deltas, aggs)
	sh.mu.Unlock()
}
