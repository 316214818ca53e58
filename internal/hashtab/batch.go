package hashtab

import (
	"math/bits"
	"unsafe"
)

// Batch probing: the memory-level-parallelism design of the columnar
// kernel (ProbeColumnsSelInto, columns_sel.go).
//
// A probe that runs alone pays one dependent cache-miss chain — hash,
// then wait for the group lines — and on eviction-heavy streams the
// data-dependent branches mispredict constantly, flushing whatever
// lookahead the out-of-order core had built across loop iterations. The
// kernel decouples address generation from resolution: a setup pass
// hashes every key in the run and records its group base, its
// fingerprint, and its hash-chosen victim lane (pure compute, no memory
// traffic); the commit pass then resolves probes in order while
// software-prefetching the group's 16-byte tag vector plus the victim
// lane's key and aggregate lines prefetchDist probes ahead. Branch
// mispredicts in the commit loop no longer cost a serialized miss: the
// flushed lookahead's lines are already in flight.
//
// The commit pass re-reads each group's tag vector fresh rather than
// trusting the setup pass: two records with the same key inside one run
// must resolve against each other (first installs, second hits) exactly
// as they would through ProbeInto one at a time. Only the hash work
// (group base, fingerprint, victim lane — pure functions of the key) is
// precomputed.

// prefetchDist is how many probes ahead of the commit point the three
// group lines are requested. The lead time is prefetchDist × the warm
// commit cost (~10-15 ns), which must cover a DRAM miss (~100 ns), so
// distances below ~8 arrive late; much larger distances ask for more
// outstanding lines than the core's ~10-16 miss buffers track, and the
// overflow is silently dropped. With three lines per probe in flight,
// 12 measured best on the miss-heavy 40 MB fixture (16 and 24 within
// noise, 32 clearly past the miss-buffer wall).
const prefetchDist = 12

// prefetchMinBytes gates prefetching by table size. Tables that fit
// comfortably in cache hit L1/L2 anyway, and the three prefetch calls
// (~4-5 ns, the stubs are assembly and cannot inline) would be pure
// overhead per probe; tables past this size miss to L3/DRAM where each
// hidden miss repays the calls many times over.
const prefetchMinBytes = 256 << 10

// VictimRun is the one form in which entries leave a table: collision
// victims of ProbeColumnsSelInto and ProbeInto, and the chunks DrainInto
// empties at the end of an epoch. Keys holds Len()×Arity() key words and
// Aggs holds Len()×NumAggs() aggregate values of the table the entries
// left, both in leaving order.
// The layout is exactly a probe run, so a cascade feeds entries onward
// by projecting Keys into child key columns and passing Aggs as the
// child's deltas verbatim. The slices are reused across Resets; steady
// state appends nothing.
type VictimRun struct {
	Keys []uint32
	Aggs []int64

	n int
}

// Reset empties the run, keeping its storage.
func (r *VictimRun) Reset() {
	r.Keys = r.Keys[:0]
	r.Aggs = r.Aggs[:0]
	r.n = 0
}

// Len returns the number of victims in the run.
func (r *VictimRun) Len() int { return r.n }

// prefetchGroup requests the tag vector of the group at base and the
// key and aggregate lines of its victim lane vs — exact for evictions,
// and within the group's span for hits and installs.
func (t *Table) prefetchGroup(base, vs int) {
	i := base + vs
	prefetch3(unsafe.Add(t.tagp, base), t.keyPtr(i), unsafe.Add(t.aggp, uintptr(i*t.astride)*8))
}

// commitProbe resolves one probe against a precomputed group base,
// fingerprint, and victim lane, appending any victim to out. It is the
// generic commit of both probe forms (ProbeColumnsSelInto and ProbeInto)
// for every shape but the sum-only arity-2 one (commitSum2).
func (t *Table) commitProbe(base int, tag uint8, vs int, key []uint32, deltas []int64, out *VictimRun) {
	a := t.arity
	grp := (*[GroupSlots]uint8)(t.tags[base:])

	// One vector compare classifies the whole group; iterate the (almost
	// always 0- or 1-bit) match mask, confirming with the key compare.
	// Key comparison is open-coded: equalKeys is beyond the inlining
	// budget, and a call per probe costs more than the compare itself.
	var mm uint16
	if simdEnabled {
		mm = matchTagsSIMD(grp, tag)
	} else {
		mm = matchTagsGeneric(grp, tag)
	}
	for ; mm != 0; mm &= mm - 1 {
		i := base + bits.TrailingZeros16(mm)
		ks := t.keys[i*a : i*a+a : i*a+a]
		match := true
		for j := 0; j < a; j++ {
			if ks[j] != key[j] {
				match = false
				break
			}
		}
		if match {
			// Hit — the steady-state common case (1-x of probes): fold
			// the deltas into the resident aggregates.
			if t.sumOnly {
				t.aggs[i*2] += deltas[0]
				t.aggs[i*2+1]++
			} else {
				t.fold(t.aggs[i*t.astride:(i+1)*t.astride], deltas)
			}
			t.stats.Hits++
			return
		}
		// Fingerprint alias (1/128 per colliding lane): keep scanning.
	}
	var em uint16
	if simdEnabled {
		em = matchTagsSIMD(grp, 0)
	} else {
		em = matchTagsGeneric(grp, 0)
	}
	if em != 0 {
		// Room in the group: install without ever loading a key line.
		i := base + bits.TrailingZeros16(em)
		t.install(i, tag, t.keys[i*a:i*a+a:i*a+a], t.aggs[i*t.astride:(i+1)*t.astride], key, deltas)
		t.live++
		t.stats.Inserts++
		return
	}
	i := base + vs
	ks := t.keys[i*a : i*a+a : i*a+a]
	row := t.aggs[i*t.astride : (i+1)*t.astride]
	up := clampUpdates(row[len(t.ops)])
	out.Keys = append(out.Keys, ks...)
	out.Aggs = append(out.Aggs, row[:len(t.ops)]...)
	out.n++
	t.stats.Collisions++
	t.stats.EvictedUpdates += uint64(up)
	t.stats.EvictedEntries++
	t.install(i, tag, ks, row, key, deltas)
}
