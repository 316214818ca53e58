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

// KeyIndex is an open-addressed index over a flat key column: Keys holds
// the groups' keys in insertion order, and the slot index maps a key to
// its group (0 = empty, else 1 + group number; linear probing at load
// ≤ 1/2). A group's state lives in columns parallel to the keys.
type KeyIndex struct {
	Keys  []uint32
	slots []uint32
	n     int
}

// Lookup returns key's group number, appending key as a new group if it
// is not indexed yet.
func (t *KeyIndex) Lookup(key []uint32) (g int, added bool) { return t.lookup(hashKey(key), key) }

// lookup is Lookup with the key's hashKey already at hand.
func (t *KeyIndex) lookup(h uint64, key []uint32) (int, bool) {
	arity := len(key)
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
			t.Keys = append(t.Keys, key...)
			return t.n - 1, true
		}
		g := int(s - 1)
		for j, v := range t.Keys[g*arity : (g+1)*arity] {
			if v != key[j] {
				continue probe
			}
		}
		return g, false
	}
}

// grow doubles the slot index and re-enters every group from the key
// column (hashes are not stored).
func (t *KeyIndex) grow(arity int) {
	t.slots = make([]uint32, max(16, 2*len(t.slots)))
	mask := uint64(len(t.slots) - 1)
	for g := 0; g < t.n; g++ {
		i := (hashKey(t.Keys[g*arity:(g+1)*arity]) >> shardBits) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(g) + 1
	}
}

// Reset empties the index, keeping its capacity.
func (t *KeyIndex) Reset() {
	t.Keys, t.n = t.Keys[:0], 0
	clear(t.slots)
}

// groupTable holds one epoch's groups for one lock shard of one relation:
// the key index plus the aggregates, flat in group order, the columns
// Rows copies out.
type groupTable struct {
	KeyIndex
	aggs []int64
}

// upsert folds one partial into its group, appending the group
// (initialized to the aggregate identities) when h/key is new.
func (t *groupTable) upsert(h uint64, key []uint32, deltas []int64, aggs []lfta.AggSpec) {
	g, added := t.lookup(h, key)
	if added {
		for j, spec := range aggs {
			t.aggs = append(t.aggs, spec.Op.Combine(spec.Op.Identity(), deltas[j]))
		}
		return
	}
	acc := t.aggs[g*len(aggs) : (g+1)*len(aggs)]
	for j, spec := range aggs {
		acc[j] = spec.Op.Combine(acc[j], deltas[j])
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
	t.Reset()
	t.aggs = t.aggs[:0]
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
