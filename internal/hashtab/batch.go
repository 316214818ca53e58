package hashtab

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// Batch probing: the memory-level-parallelism kernel of the table.
//
// A scalar ProbeInto pays one dependent cache-miss chain per probe —
// hash, then wait for the group lines — and on eviction-heavy streams
// the data-dependent branches mispredict constantly, flushing whatever
// lookahead the out-of-order core had built across loop iterations.
// ProbeBatchInto decouples address generation from resolution: a setup
// pass hashes every key in the run and records its group base, its
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
// as they would through scalar probes. Only the hash work (group base,
// fingerprint, victim lane — pure functions of the key) is precomputed.

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

// VictimRun collects the collision victims of a batch probe in columnar
// form: Keys holds Len()×arity key words and Aggs holds Len()×NumAggs()
// aggregate values, both in eviction order. The layout is exactly a
// probe run, so a cascade feeds victims onward by projecting Keys into a
// child key run and passing Aggs as the child's deltas verbatim. The
// slices are reused across Resets; steady state appends nothing.
type VictimRun struct {
	Keys []uint32
	Aggs []int64

	n     int
	arity int
	naggs int
}

// Reset empties the run and fixes the per-victim widths.
func (r *VictimRun) Reset(arity, naggs int) {
	r.Keys = r.Keys[:0]
	r.Aggs = r.Aggs[:0]
	r.n = 0
	r.arity = arity
	r.naggs = naggs
}

// Len returns the number of victims in the run.
func (r *VictimRun) Len() int { return r.n }

// Key returns the i-th victim's key, aliasing the run's storage.
func (r *VictimRun) Key(i int) []uint32 {
	return r.Keys[i*r.arity : (i+1)*r.arity]
}

// AggRow returns the i-th victim's aggregates, aliasing the run's
// storage.
func (r *VictimRun) AggRow(i int) []int64 {
	return r.Aggs[i*r.naggs : (i+1)*r.naggs]
}

// ProbeBatchInto is the cascade's victim-run probe: a parent table's
// VictimRun, projected record-major into this table's key run (flat,
// len = n×Arity()) with the victims' aggregates as per-key deltas (flat,
// len = n×NumAggs()), is probed as one run, and every collision victim
// is appended to out, which is reset first. Records enter the raw tables
// through ProbeColumnsSelInto; this is the level below. Outcomes,
// statistics, and final table contents are identical to n scalar
// ProbeInto calls in the same order; only the memory access schedule
// differs. The run's keys and deltas are read, never retained.
func (t *Table) ProbeBatchInto(keys []uint32, deltas []int64, out *VictimRun) {
	a := t.arity
	na := len(t.ops)
	if len(keys)%a != 0 {
		panic(fmt.Sprintf("hashtab: batch key run of %d words for table %v (arity %d)", len(keys), t.rel, a))
	}
	n := len(keys) / a
	if len(deltas) != n*na {
		panic(fmt.Sprintf("hashtab: %d batch deltas for %d probes of table %v (%d aggs)", len(deltas), n, t.rel, na))
	}
	out.Reset(a, na)
	if cap(t.batchIdx) < n {
		t.batchIdx = make([]int, n)
		t.batchTag = make([]uint8, n)
		t.batchVic = make([]uint8, n)
	}
	// Sum-only arity-2 runs (the dominant shape of the paper's workloads)
	// take the monomorphic batch kernel: inline hashing in the setup pass
	// and packed-word commits, same prefetch schedule (fastprobe.go).
	if t.fastKind == fastSum2 && n > 0 {
		t.probeBatchSum2(keys, deltas, out, n)
		return
	}
	idx := t.batchIdx[:n]
	tg := t.batchTag[:n]
	vic := t.batchVic[:n]

	// Setup pass: hash and classify the whole run — pure compute, so it
	// never competes with the group traffic it schedules. idx holds the
	// group's base slot; vic its victim lane, already folded into a
	// partial final group's width so the commit pass needs no width
	// check.
	for k := 0; k < n; k++ {
		o := k * a
		h := t.hash(keys[o : o+a : o+a])
		base, tag := t.group(h)
		idx[k] = base
		tg[k] = tag
		vic[k] = uint8(t.victimSlot(base, h) - base)
	}

	// Commit pass: resolve in order against fresh group state, keeping
	// the group prefetchDist probes ahead in flight. The tag prefetch
	// covers the whole 16-byte vector (one aligned line); the entry
	// prefetches target the victim lane — exact for evictions, and
	// within the group's span for hits and installs.
	if t.SpaceUnits()*4 >= prefetchMinBytes {
		warm := prefetchDist
		if warm > n {
			warm = n
		}
		for k := 0; k < warm; k++ {
			i := idx[k] + int(vic[k])
			prefetch3(unsafe.Pointer(&t.tags[idx[k]]), unsafe.Pointer(&t.keys[i*a]), unsafe.Pointer(&t.aggs[i*t.astride]))
		}
		for k := 0; k < n; k++ {
			if k+prefetchDist < n {
				i := idx[k+prefetchDist] + int(vic[k+prefetchDist])
				prefetch3(unsafe.Pointer(&t.tags[idx[k+prefetchDist]]), unsafe.Pointer(&t.keys[i*a]), unsafe.Pointer(&t.aggs[i*t.astride]))
			}
			t.stats.Probes++
			t.commitProbe(idx[k], tg[k], int(vic[k]), keys[k*a:k*a+a:k*a+a], deltas[k*na:k*na+na:k*na+na], out)
		}
		return
	}
	for k := 0; k < n; k++ {
		t.stats.Probes++
		t.commitProbe(idx[k], tg[k], int(vic[k]), keys[k*a:k*a+a:k*a+a], deltas[k*na:k*na+na:k*na+na], out)
	}
}

// commitProbe resolves one batch probe against a precomputed group base,
// fingerprint, and victim lane, appending any victim to out. It mirrors
// the open-coded kernel of ProbeInto exactly (the batched≡scalar
// property tests hold the two together); the only difference is where
// the victim lands.
func (t *Table) commitProbe(base int, tag uint8, vs int, key []uint32, deltas []int64, out *VictimRun) {
	a := t.arity
	grp := (*[GroupSlots]uint8)(t.tags[base:])
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
			if t.sumOnly {
				t.aggs[i*2] += deltas[0]
				t.aggs[i*2+1]++
			} else {
				t.fold(t.aggs[i*t.astride:(i+1)*t.astride], deltas)
			}
			t.stats.Hits++
			return
		}
	}
	var em uint16
	if simdEnabled {
		em = matchTagsSIMD(grp, 0)
	} else {
		em = matchTagsGeneric(grp, 0)
	}
	if em != 0 {
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
