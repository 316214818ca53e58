package hashtab

// The one monomorphic commit: sum-only arity-2 tables (count(*) and sum
// over two attributes, the dominant shape of both raw tables and the
// cascade). The generic commit (commitProbe) pays per-probe costs that
// only exist because arity and aggregate shape are runtime values: a
// slice header + bounds check + word loop per candidate key compare, and
// a strided slice expression per aggregate touch. commitSum2 specializes
// them away:
//
//   - the packed key word doubles as the key image, so the candidate
//     compare is ONE word compare against a register;
//   - key and aggregate rows are addressed by unsafe.Add from the array
//     bases — no slice headers, no bounds checks;
//   - the sum-only aggregate row is a fixed [2]int64 (sum, update
//     count), so hits are two adds on one cache line.
//
// Both probe forms (ProbeColumnsSelInto and ProbeInto) commit through
// it when the table's fastSum2 flag is set, and through commitProbe
// otherwise. It is the only specialization because it is the only one
// an end-to-end number sees, where probes evict heavily (docs/PERF.md).
//
// Behaviour is bit-identical to the generic commit — same group, same
// victim lane, same statistics, same victim bytes — which the hashtab
// suites pin against a reference table with fastSum2 cleared. The
// commit does unaligned word loads through unsafe, so it is enabled
// only on architectures that support them (fastProbeArch, per-GOARCH);
// elsewhere every table takes commitProbe.

import (
	"math/bits"
	"unsafe"
)

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

// commitSum2 is commitProbe for sum-only arity-2 tables: the packed key
// word and a precomputed (base, tag, victim lane), with victims appended
// to the run.
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
