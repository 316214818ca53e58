// Package hashtab implements the LFTA hash tables of the paper's
// two-level DSMS architecture.
//
// An LFTA table is a fixed array of b slots, organised since PR 6 into
// groups of GroupSlots = 16 slots that share one 16-byte fingerprint
// vector (see match.go). Probing a record's group either (i) starts a
// new group entry in a free slot of its hash group, (ii) increments the
// aggregates of a resident slot whose key matches, or (iii) *collides*:
// the group is full of other keys, so one resident entry is evicted (to
// the HFTA, or to the tables the relation feeds) and replaced by the new
// entry with fresh aggregates. This evict-on-collision behaviour —
// rather than chaining or probing sequences — is what makes the
// collision rate the central performance quantity of the paper, and the
// table keeps exact operation counts so experiments can compute the
// "actual cost" c1·probes + c2·evictions. Relative to the paper's
// one-slot buckets, a 16-slot group at equal space only evicts when all
// 16 co-hashed slots are taken, which drops the collision rate sharply
// at moderate load (internal/collision models both geometries).
//
// Space accounting follows the paper's convention: the unit of space is
// 4 bytes, each attribute value and each aggregate counter occupies one
// unit, so a slot of a relation with arity a and k aggregates occupies
// h = a + k units.
package hashtab

import (
	"fmt"
	"unsafe"

	"repro/internal/attr"
)

// AggOp is the combine operation of one aggregate slot.
type AggOp uint8

// Supported aggregate operations. Count is Sum over a delta of 1.
const (
	Sum AggOp = iota
	Min
	Max
)

// String returns the operation name.
func (op AggOp) String() string {
	switch op {
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("AggOp(%d)", uint8(op))
	}
}

// Combine merges a new value into an accumulator under the operation.
func (op AggOp) Combine(acc, v int64) int64 {
	switch op {
	case Sum:
		return acc + v
	case Min:
		if v < acc {
			return v
		}
		return acc
	case Max:
		if v > acc {
			return v
		}
		return acc
	default:
		return acc
	}
}

// Identity returns the neutral starting accumulator for the operation.
func (op AggOp) Identity() int64 {
	switch op {
	case Min:
		return int64(1)<<62 - 1
	case Max:
		return -(int64(1)<<62 - 1)
	default:
		return 0
	}
}

// Stats are cumulative operation counts for one table.
type Stats struct {
	Probes     uint64 // every probed key (cost c1 each)
	Hits       uint64 // probe matched resident group
	Inserts    uint64 // probe filled an empty slot
	Collisions uint64 // probe evicted a resident group (cost c2 if leaf)
	Flushes    uint64 // entries emptied out by DrainInto

	// Flow-length bookkeeping: total updates accumulated by entries that
	// have been evicted or flushed, and how many such entries there were.
	// Their ratio estimates the average flow length l_a.
	EvictedUpdates uint64
	EvictedEntries uint64
}

// CollisionRate returns the fraction of probes that collided, the
// empirical x of the paper's model.
func (s Stats) CollisionRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Collisions) / float64(s.Probes)
}

// AvgFlowLength estimates the average number of records per resident
// group occupancy (the paper's l_a) from eviction bookkeeping.
func (s Stats) AvgFlowLength() float64 {
	if s.EvictedEntries == 0 {
		return 1
	}
	return float64(s.EvictedUpdates) / float64(s.EvictedEntries)
}

// Table is a single LFTA hash table.
//
// Slot state lives in a split layout: a dense 8-bit fingerprint array
// (tags, one byte per slot, 16-byte aligned so each group's vector is
// one load) in front of the flat entry storage. A probe hashes to a
// group, and one matchTags compare (match.go) classifies all 16 lanes:
// tag-matching lanes are probable hits confirmed by a key compare (1/128
// of colliding keys alias the tag and fall through), a zero lane means
// the group has room (install without loading any key line), and a group
// with neither free nor matching lanes is full — the probe evicts the
// group's hash-chosen victim lane. Because the tag vector answers
// "hit / room / full" from one dense 16-byte load, the columnar kernel
// (ProbeColumnsSelInto) can classify and prefetch a whole run of groups
// before the first entry line is needed — see batch.go.
//
// Every entry leaves a table as a VictimRun: the victims of either probe
// form (ProbeColumnsSelInto for runs, ProbeInto for one key) and the
// chunks DrainInto empties at the end of an epoch.
//
// Entry storage interleaves each slot's update count with its aggregates
// (aggs stride is NumAggs()+1, count in the last cell) so the hit and
// eviction paths touch one line, not two. The count is kept as int64 and
// clamped to uint32 when it reaches the flow-length statistics; occupancy
// is tracked by the tag byte alone (tags[i] == 0 ⟺ slot i empty).
type Table struct {
	rel     attr.Set
	arity   int
	ops     []AggOp
	sumOnly bool // exactly one aggregate slot with op Sum (count(*)/sum tables)
	b       int  // capacity in slots (the paper's bucket count)
	ngroups int  // ⌈b/GroupSlots⌉
	lastW   int  // usable lanes in the final group (GroupSlots when b divides evenly)
	astride int  // len(ops)+1: aggregates plus the update count
	// fastSum2 routes both probe forms' commits through commitSum2
	// (fastprobe.go): set for sum-only arity-2 tables on architectures
	// that allow its unaligned word loads.
	fastSum2 bool
	seed     uint64

	tags []uint8  // ngroups×GroupSlots lane fingerprints, 16-byte aligned; 0 = empty, tagDisabled = pad lane, else tagOf(hash)
	keys []uint32 // b × arity, flat
	aggs []int64  // b × astride, flat; row tail cell is the update count

	// Base pointers of tags/keys/aggs, cached at construction for
	// commitSum2 and the prefetcher (fastprobe.go, batch.go): slot
	// addressing by unsafe.Add skips the slice-header loads and bounds
	// checks of the generic commit. The arrays never reallocate after
	// New, and the pointers keep them live.
	tagp unsafe.Pointer
	keyp unsafe.Pointer
	aggp unsafe.Pointer

	// Columnar-kernel scratch (see ProbeColumnsSelInto): precomputed
	// group base slot, fingerprint, victim lane, and source lane of the
	// setup pass, sized to the run on first use. Tables are single-owner
	// (one shard probes a table), so the scratch lives on the table
	// rather than in every caller.
	batchIdx  []int32
	batchTag  []uint8
	batchVic  []uint8
	batchLane []int32

	live  int
	stats Stats
}

// New creates a table for relation rel with b slots and one aggregate
// slot per op. The seed perturbs the hash function so different tables
// (and different runs) use independent hash functions, as the paper's
// random-hash assumption requires.
func New(rel attr.Set, b int, ops []AggOp, seed uint64) (*Table, error) {
	if rel.IsEmpty() {
		return nil, fmt.Errorf("hashtab: empty relation")
	}
	if b <= 0 {
		return nil, fmt.Errorf("hashtab: table for %v needs at least 1 bucket, got %d", rel, b)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("hashtab: table for %v needs at least one aggregate", rel)
	}
	arity := rel.Size()
	ng := (b + GroupSlots - 1) / GroupSlots
	// Over-allocate the tag array and offset so every group's 16-byte
	// vector is 16-byte aligned (never split across cache lines).
	raw := make([]uint8, ng*GroupSlots+groupAlign-1)
	off := (groupAlign - int(uintptr(unsafe.Pointer(&raw[0])))&(groupAlign-1)) & (groupAlign - 1)
	tags := raw[off : off+ng*GroupSlots : off+ng*GroupSlots]
	for i := b; i < ng*GroupSlots; i++ {
		tags[i] = tagDisabled
	}
	sumOnly := len(ops) == 1 && ops[0] == Sum
	t := &Table{
		rel:      rel,
		arity:    arity,
		ops:      append([]AggOp(nil), ops...),
		sumOnly:  sumOnly,
		b:        b,
		ngroups:  ng,
		lastW:    b - (ng-1)*GroupSlots,
		astride:  len(ops) + 1,
		fastSum2: fastProbeArch && sumOnly && arity == 2,
		seed:     seed,
		tags:     tags,
		keys:     make([]uint32, b*arity),
		aggs:     make([]int64, b*(len(ops)+1)),
	}
	t.tagp = unsafe.Pointer(&t.tags[0])
	t.keyp = unsafe.Pointer(&t.keys[0])
	t.aggp = unsafe.Pointer(&t.aggs[0])
	return t, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(rel attr.Set, b int, ops []AggOp, seed uint64) *Table {
	t, err := New(rel, b, ops, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// Rel returns the relation the table aggregates.
func (t *Table) Rel() attr.Set { return t.rel }

// Buckets returns the number of slots b (the paper's bucket count: one
// resident entry per slot; slots are probed GroupSlots at a time).
func (t *Table) Buckets() int { return t.b }

// Groups returns the number of GroupSlots-wide probe groups.
func (t *Table) Groups() int { return t.ngroups }

// Arity returns the group-key width.
func (t *Table) Arity() int { return t.arity }

// NumAggs returns the number of aggregate slots.
func (t *Table) NumAggs() int { return len(t.ops) }

// EntrySize returns h, the slot size in 4-byte units (arity + #aggs).
func (t *Table) EntrySize() int { return t.arity + len(t.ops) }

// SpaceUnits returns the table's total size in 4-byte units, b·h.
func (t *Table) SpaceUnits() int { return t.b * t.EntrySize() }

// Len returns the number of occupied slots.
func (t *Table) Len() int { return t.live }

// Stats returns a copy of the cumulative operation counters.
func (t *Table) Stats() Stats { return t.stats }

// ResetStats zeroes the operation counters without touching contents.
func (t *Table) ResetStats() { t.stats = Stats{} }

// group returns the base slot index and fingerprint for hash h.
func (t *Table) group(h uint64) (base int, tag uint8) {
	return Reduce(h, t.ngroups) * GroupSlots, tagOf(h)
}

// victimSlot returns the slot evicted when the group at base is full: a
// hash-chosen lane (bits 8-11, disjoint from both the fingerprint and the
// bits fastrange consumes), folded into the final group's usable width.
// It is a pure function of the key, so scalar, batch, and every kernel
// selection evict identically.
func (t *Table) victimSlot(base int, h uint64) int {
	vs := int(h>>8) & (GroupSlots - 1)
	if base == (t.ngroups-1)*GroupSlots && vs >= t.lastW {
		vs %= t.lastW
	}
	return base + vs
}

// clampUpdates narrows a stored update count to uint32 (saturating; a
// slot would need 2³² folds in one epoch to get here).
func clampUpdates(u int64) uint32 {
	if u >= int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(u)
}

// ProbeInto probes one key, allocation-free in steady state. On a
// collision the victim's key and aggregates are appended to out, which
// must hold only this table's victims since its last Reset. It hashes the
// key, picks the group and victim lane, and commits through the columnar
// kernel's own commit (commitSum2 for sum-only arity-2 tables,
// commitProbe for every other shape), so outcomes and statistics are
// those of a one-lane ProbeColumnsSelInto. Its one hot caller is lfta's per-record
// Runtime.Process: exact per-record budget charging probes an admitted
// record and reads its cost before the next is offered.
func (t *Table) ProbeInto(key []uint32, deltas []int64, out *VictimRun) (collided bool) {
	if len(key) != t.arity || len(deltas) != len(t.ops) {
		t.probePanic(key, deltas)
	}
	t.stats.Probes++
	h := t.hash(key)
	base, tag := t.group(h)
	vs := t.victimSlot(base, h) - base
	n := out.n
	if t.fastSum2 {
		t.commitSum2(base, tag, vs, uint64(key[0])|uint64(key[1])<<32, deltas[0], out)
	} else {
		t.commitProbe(base, tag, vs, key, deltas, out)
	}
	return out.n > n
}

// probePanic reports a key-arity or delta-count mismatch out of line, so
// the fmt machinery stays off the probe hot path.
//
//go:noinline
func (t *Table) probePanic(key []uint32, deltas []int64) {
	if len(key) != t.arity {
		panic(fmt.Sprintf("hashtab: key arity %d for table %v (arity %d)", len(key), t.rel, t.arity))
	}
	panic(fmt.Sprintf("hashtab: %d deltas for table %v (%d aggs)", len(deltas), t.rel, len(t.ops)))
}

// fold merges deltas into a resident slot's aggregate row (len
// NumAggs()+1) and bumps the trailing update count.
func (t *Table) fold(row []int64, deltas []int64) {
	for j, op := range t.ops {
		row[j] = op.Combine(row[j], deltas[j])
	}
	row[len(t.ops)]++
}

// install writes (key, deltas) into slot i's storage slices and stamps
// its fingerprint. row is the slot's full aggregate row (aggregates plus
// update count). The caller adjusts live when the slot was empty.
func (t *Table) install(i int, tag uint8, ks []uint32, row []int64, key []uint32, deltas []int64) {
	t.tags[i] = tag
	copy(ks, key)
	if t.sumOnly {
		row[0] = deltas[0]
	} else {
		for j, op := range t.ops {
			row[j] = op.Combine(op.Identity(), deltas[j])
		}
	}
	row[len(t.ops)] = 1
}

// equalKeys compares two keys of equal arity, unrolled for the short
// keys (arity 1-4) the paper's workloads probe so the resident-group
// fast path pays no loop overhead.
func equalKeys(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	switch len(a) {
	case 1:
		return a[0] == b[0]
	case 2:
		return a[0] == b[0] && a[1] == b[1]
	case 3:
		return a[0] == b[0] && a[1] == b[1] && a[2] == b[2]
	case 4:
		return a[0] == b[0] && a[1] == b[1] && a[2] == b[2] && a[3] == b[3]
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DrainInto empties resident entries into out (reset first), in slot
// order from slot pos, until out holds max entries or the table is
// empty; it returns the slot to resume from, Buckets() once the table is
// empty. Chunk by chunk, it is the end-of-epoch flush of the paper: the
// caller cascades each chunk before draining the next.
func (t *Table) DrainInto(out *VictimRun, pos, max int) (next int) {
	a, na := t.arity, len(t.ops)
	out.Reset()
	for ; pos < t.b && out.n < max && t.live > 0; pos++ {
		if t.tags[pos] == 0 {
			continue
		}
		t.tags[pos] = 0
		row := t.aggs[pos*t.astride : (pos+1)*t.astride]
		out.Keys = append(out.Keys, t.keys[pos*a:pos*a+a]...)
		out.Aggs = append(out.Aggs, row[:na]...)
		out.n++
		t.live--
		t.stats.Flushes++
		t.stats.EvictedUpdates += uint64(clampUpdates(row[na]))
		t.stats.EvictedEntries++
	}
	if t.live == 0 {
		return t.b
	}
	return pos
}

// Clear empties the table without emitting entries or touching stats.
func (t *Table) Clear() {
	for i := 0; i < t.b; i++ {
		t.tags[i] = 0
	}
	t.live = 0
}
