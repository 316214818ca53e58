package hfta

import (
	"sync"

	"repro/internal/attr"
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
func (t *KeyIndex) Lookup(key []uint32) (g int, added bool) {
	arity := len(key)
	if 2*(t.n+1) > len(t.slots) {
		t.grow(arity)
	}
	mask := uint64(len(t.slots) - 1)
probe:
	for i := hashKey(key) & mask; ; i = (i + 1) & mask {
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
		i := hashKey(t.Keys[g*arity:(g+1)*arity]) & mask
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

// foldAt is the unfolded tail a log may hold before an append folds it,
// when its folded prefix is shorter: a (relation, epoch) never holds more
// than 2·groups + foldAt partials, and an ordinary epoch, whose partials
// number well under foldAt, is sorted exactly once, by its read-out.
const foldAt = 1 << 14

// epochLog is one (relation, epoch)'s merge state: its partials, keys
// flat n×arity and aggregates flat n×len(aggs). The first folded entries
// are distinct groups sorted by key, each the combine of the partials
// that arrived before the rest; the tail after them is in arrival order.
type epochLog struct {
	mu     sync.Mutex
	keys   []uint32
	aggs   []int64
	folded int
}

// relState is the merge state of one query relation: the live epochs'
// logs, plus the emptied logs of dropped epochs. A recycled log keeps its
// capacity, so a steady Drop-after-emit cadence stops allocating once
// capacities reach the per-epoch partial count.
type relState struct {
	arity int
	mu    sync.Mutex // guards logs and pool; each log's contents have its own lock
	logs  map[uint32]*epochLog
	pool  []*epochLog
}

// acquire returns the epoch's log with its lock held, or nil when the
// epoch has none and create is false. The relation lock is released once
// the log's lock is taken: a read-out sorting one epoch holds nothing an
// append to another epoch needs, unless a caller queues on that log.
func (rs *relState) acquire(epoch uint32, create bool) *epochLog {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	l := rs.logs[epoch]
	if l == nil {
		if !create {
			return nil
		}
		if n := len(rs.pool); n > 0 {
			l, rs.pool = rs.pool[n-1], rs.pool[:n-1]
		} else {
			l = &epochLog{}
		}
		rs.logs[epoch] = l
	}
	l.mu.Lock()
	return l
}

// release empties the epoch's log into the pool, after any append or
// read-out in flight on it. Caller holds rs.mu.
func (rs *relState) release(epoch uint32) {
	l := rs.logs[epoch]
	if l == nil {
		return
	}
	delete(rs.logs, epoch)
	l.mu.Lock()
	l.keys, l.aggs, l.folded = l.keys[:0], l.aggs[:0], 0
	l.mu.Unlock()
	rs.pool = append(rs.pool, l)
}

// MergeRun appends a sealed columnar run of partials for one query
// relation and epoch — keys flat n×arity, aggs flat n×NumAggs, in
// transfer order (exactly the layout lfta.RunSink delivers) — to the
// epoch's log under one lock hold, folding the log first whenever its
// tail would pass max(folded, foldAt). The partials combine at read-out,
// in arrival order. Safe for concurrent use; the slices are not retained.
// Relations that are not user queries are ignored (phantoms never reach
// the HFTA in a correct runtime, but defense costs nothing), and so is a
// run shorter than one key.
func (a *Aggregator) MergeRun(rel attr.Set, epoch uint32, keys []uint32, aggs []int64) {
	rs := a.state[rel]
	if rs == nil || len(keys) < rs.arity {
		return
	}
	arity, na := rs.arity, len(a.aggs)
	l := rs.acquire(epoch, true)
	defer l.mu.Unlock()
	for n := len(keys) / arity; n > 0; n = len(keys) / arity {
		room := max(l.folded, foldAt) - (len(l.keys)/arity - l.folded)
		if room <= 0 {
			a.fold(l, arity)
			continue
		}
		n = min(n, room)
		l.keys = append(l.keys, keys[:n*arity]...)
		l.aggs = append(l.aggs, aggs[:n*na]...)
		keys, aggs = keys[n*arity:], aggs[n*na:]
	}
}
