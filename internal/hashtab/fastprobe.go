package hashtab

// Monomorphic probe kernels for the table shapes the paper's workloads
// actually run: a single Sum aggregate (count(*) and sum tables — every
// CountStar deployment, every collision-model experiment). The generic
// commit (commitProbe) pays per-probe costs that only exist because
// arity and aggregate shape are runtime values: a slice header + bounds
// check + word loop per candidate key compare, and a strided slice
// expression per aggregate touch, plus (for ProbeInto) an out-of-line
// call to Table.hash. The kernels here are selected once at New() —
// fastKind — and specialize all of it away:
//
//   - the hash chunk is packed from the key words in registers and mixed
//     inline (mixWord is inlinable), so there is no hash call at all;
//     for arity ≤ 2 the packed chunk doubles as the key image, so the
//     candidate compare is ONE word compare against a register;
//   - key and aggregate rows are addressed by unsafe.Add from the array
//     bases — no slice headers, no bounds checks, no pointer-derived
//     spills (the compiler proves the arrays don't alias the table);
//   - the sum-only aggregate row is a fixed [2]int64 (sum, update
//     count), so hits are two adds on one cache line.
//
// ProbeInto dispatches sum-only arity 1, 2 (open-coded in ProbeInto) and
// 4 here. The columnar kernel has one specialisation, commitSum2: the
// commit of sum-only arity-2 tables, the dominant shape of both raw
// tables and the cascade.
//
// Behaviour is bit-identical to the generic commit — same hash, same
// group, same victim lane, same statistics, same victim bytes — which
// the hashtab suites pin against a reference table forced to fastNone.
// The kernels do unaligned word loads through unsafe, so they are
// enabled only on architectures that support them (fastProbeArch,
// per-GOARCH); elsewhere fastKind stays fastNone and every probe takes
// the generic path.

import (
	"math/bits"
	"unsafe"
)

// fastKind values: which monomorphic kernel (if any) this table's
// probes dispatch to.
const (
	fastNone uint8 = iota
	fastSum1
	fastSum2
	fastSum4
)

// fastKindOf classifies a table shape at construction time.
func fastKindOf(arity int, sumOnly bool) uint8 {
	if !fastProbeArch || !sumOnly {
		return fastNone
	}
	switch arity {
	case 1:
		return fastSum1
	case 2:
		return fastSum2
	case 4:
		return fastSum4
	}
	return fastNone
}

// keyPtr returns the address of slot i's key storage (via the cached
// array base — no slice header, no bounds check).
func (t *Table) keyPtr(i int) unsafe.Pointer {
	return unsafe.Add(t.keyp, uintptr(i*t.arity)*4)
}

// sumRow returns slot i's (sum, update count) row of a sum-only table
// (astride is exactly 2).
func (t *Table) sumRow(i int) *[2]int64 {
	return (*[2]int64)(unsafe.Add(t.aggp, uintptr(i)*16))
}

// probeSum1 is ProbeInto for sum-only arity-1 tables. (The arity-2
// variant is open-coded directly in ProbeInto — the dominant shape pays
// no second call frame; these share its structure exactly.)
func (t *Table) probeSum1(k0 uint32, delta int64, out *VictimRun) (collided bool) {
	t.stats.Probes++
	h := mixWord(t.seed^gamma1, uint64(k0))
	base := Reduce(h, t.ngroups) * GroupSlots
	tag := uint8(h) | 0x80
	grp := (*[GroupSlots]uint8)(unsafe.Add(t.tagp, base))
	var mm uint16
	if simdEnabled {
		mm = matchTagsSIMD(grp, tag)
	} else {
		mm = matchTagsGeneric(grp, tag)
	}
	for ; mm != 0; mm &= mm - 1 {
		i := base + bits.TrailingZeros16(mm)
		if *(*uint32)(t.keyPtr(i)) == k0 {
			row := t.sumRow(i)
			row[0] += delta
			row[1]++
			t.stats.Hits++
			return false
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
		t.tags[i] = tag
		*(*uint32)(t.keyPtr(i)) = k0
		row := t.sumRow(i)
		row[0] = delta
		row[1] = 1
		t.live++
		t.stats.Inserts++
		return false
	}
	i := t.victimSlot(base, h)
	row := t.sumRow(i)
	up := clampUpdates(row[1])
	out.Keys = append(out.Keys, t.keys[i])
	out.Aggs = append(out.Aggs, row[0])
	out.n++
	t.stats.Collisions++
	t.stats.EvictedUpdates += uint64(up)
	t.stats.EvictedEntries++
	t.tags[i] = tag
	*(*uint32)(t.keyPtr(i)) = k0
	row[0] = delta
	row[1] = 1
	return true
}

// probeSum4 is ProbeInto for sum-only arity-4 tables: two packed chunks
// feed two inline mix rounds and two word compares.
func (t *Table) probeSum4(k0, k1, k2, k3 uint32, delta int64, out *VictimRun) (collided bool) {
	t.stats.Probes++
	w0 := uint64(k0) | uint64(k1)<<32
	w1 := uint64(k2) | uint64(k3)<<32
	h := mixWord(mixWord(t.seed^gamma4, w0), w1)
	base := Reduce(h, t.ngroups) * GroupSlots
	tag := uint8(h) | 0x80
	grp := (*[GroupSlots]uint8)(unsafe.Add(t.tagp, base))
	var mm uint16
	if simdEnabled {
		mm = matchTagsSIMD(grp, tag)
	} else {
		mm = matchTagsGeneric(grp, tag)
	}
	for ; mm != 0; mm &= mm - 1 {
		i := base + bits.TrailingZeros16(mm)
		kp := t.keyPtr(i)
		if *(*uint64)(kp) == w0 && *(*uint64)(unsafe.Add(kp, 8)) == w1 {
			row := t.sumRow(i)
			row[0] += delta
			row[1]++
			t.stats.Hits++
			return false
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
		t.tags[i] = tag
		kp := t.keyPtr(i)
		*(*uint64)(kp) = w0
		*(*uint64)(unsafe.Add(kp, 8)) = w1
		row := t.sumRow(i)
		row[0] = delta
		row[1] = 1
		t.live++
		t.stats.Inserts++
		return false
	}
	i := t.victimSlot(base, h)
	row := t.sumRow(i)
	up := clampUpdates(row[1])
	out.Keys = append(out.Keys, t.keys[i*4:i*4+4]...)
	out.Aggs = append(out.Aggs, row[0])
	out.n++
	t.stats.Collisions++
	t.stats.EvictedUpdates += uint64(up)
	t.stats.EvictedEntries++
	t.tags[i] = tag
	kp := t.keyPtr(i)
	*(*uint64)(kp) = w0
	*(*uint64)(unsafe.Add(kp, 8)) = w1
	row[0] = delta
	row[1] = 1
	return true
}

// commitSum2 is commitProbe for sum-only arity-2 tables: the packed key
// word and precomputed (base, tag, victim lane) from the columnar
// kernel's setup pass, with victims appended to the run.
func (t *Table) commitSum2(base int, tag uint8, vs int, w uint64, delta int64, out *VictimRun) {
	grp := (*[GroupSlots]uint8)(unsafe.Add(t.tagp, base))
	var mm uint16
	if simdEnabled {
		mm = matchTagsSIMD(grp, tag)
	} else {
		mm = matchTagsGeneric(grp, tag)
	}
	for ; mm != 0; mm &= mm - 1 {
		i := base + bits.TrailingZeros16(mm)
		if *(*uint64)(t.keyPtr(i)) == w {
			row := t.sumRow(i)
			row[0] += delta
			row[1]++
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
		t.tags[i] = tag
		*(*uint64)(t.keyPtr(i)) = w
		row := t.sumRow(i)
		row[0] = delta
		row[1] = 1
		t.live++
		t.stats.Inserts++
		return
	}
	i := base + vs
	row := t.sumRow(i)
	up := clampUpdates(row[1])
	out.Keys = append(out.Keys, t.keys[i*2], t.keys[i*2+1])
	out.Aggs = append(out.Aggs, row[0])
	out.n++
	t.stats.Collisions++
	t.stats.EvictedUpdates += uint64(up)
	t.stats.EvictedEntries++
	t.tags[i] = tag
	*(*uint64)(t.keyPtr(i)) = w
	row[0] = delta
	row[1] = 1
}
