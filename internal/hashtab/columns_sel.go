package hashtab

import (
	"fmt"
	"math/bits"

	"repro/internal/attr"
)

// Selection-aware columnar entry points — the table's one run probe
// kernel. A vectorized WHERE leaves a column batch with a
// 64-bit-per-word selection bitmap instead of a compacted copy; these
// kernels consume the columns plus the bitmap directly, iterating set
// bits so dead lanes cost nothing — no gather, no hash, no probe. The
// setup pass hashes column-wise with per-arity unrolled loops and only
// the commit pass — which must touch the group's key line anyway —
// materializes each key, into a stack buffer (or, for sum-only arity-2
// tables, one packed word). Selected lanes are processed in ascending
// lane order, so results are bit-identical to calling ProbeInto lane by
// lane. An unfiltered batch, and a victim run projected into child key
// columns by lfta's cascade, is the saturated selection.
//
// The bitmap follows the selvec convention: bit j of word w covers lane
// w*64+j, and dead bits past lane n-1 are zero (so popcounts over whole
// words are exact). The package does not import selvec — a []uint64 is
// the whole contract — which keeps hashtab at the bottom of the
// dependency order.

// selWords returns the number of selection words covering n lanes.
func selWords(n int) int { return (n + 63) >> 6 }

// selCount returns the number of selected lanes.
func selCount(sel []uint64, n int) int {
	total := 0
	for _, w := range sel[:selWords(n)] {
		total += bits.OnesCount64(w)
	}
	return total
}

// HashColumnsSel writes HashWords(seed, row i) for every selected row i
// of a column-major key block compactly into out, in ascending lane
// order, and returns the number of hashes written. cols is one slice
// per key word, each with at least n lanes; out must have room for the
// selection popcount. It is the columnar twin of HashWords — same pair
// packing, same per-arity initial states — so the shard router
// (lfta.Sharded.ShardColumns) routes a lane exactly where HashWords of its
// attribute vector says; a dense block is the saturated selection.
func HashColumnsSel(seed uint64, cols [][]uint32, n int, sel []uint64, out []uint64) int {
	if n == 0 {
		return 0
	}
	nw := selWords(n)
	m := 0
	switch len(cols) {
	case 1:
		c0 := cols[0]
		init := seed ^ gamma1
		for wi := 0; wi < nw; wi++ {
			base := wi << 6
			for w := sel[wi]; w != 0; w &= w - 1 {
				i := base + bits.TrailingZeros64(w)
				out[m] = mixWord(init, uint64(c0[i]))
				m++
			}
		}
	case 2:
		c0, c1 := cols[0], cols[1]
		init := seed ^ gamma2
		for wi := 0; wi < nw; wi++ {
			base := wi << 6
			for w := sel[wi]; w != 0; w &= w - 1 {
				i := base + bits.TrailingZeros64(w)
				out[m] = mixWord(init, uint64(c0[i])|uint64(c1[i])<<32)
				m++
			}
		}
	case 3:
		c0, c1, c2 := cols[0], cols[1], cols[2]
		init := seed ^ gamma3
		for wi := 0; wi < nw; wi++ {
			base := wi << 6
			for w := sel[wi]; w != 0; w &= w - 1 {
				i := base + bits.TrailingZeros64(w)
				out[m] = mixWord(mixWord(init, uint64(c0[i])|uint64(c1[i])<<32), uint64(c2[i]))
				m++
			}
		}
	case 4:
		c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
		init := seed ^ gamma4
		for wi := 0; wi < nw; wi++ {
			base := wi << 6
			for w := sel[wi]; w != 0; w &= w - 1 {
				i := base + bits.TrailingZeros64(w)
				out[m] = mixWord(mixWord(init, uint64(c0[i])|uint64(c1[i])<<32), uint64(c2[i])|uint64(c3[i])<<32)
				m++
			}
		}
	default:
		var kbuf [attr.MaxAttrs]uint32
		a := len(cols)
		for wi := 0; wi < nw; wi++ {
			base := wi << 6
			for w := sel[wi]; w != 0; w &= w - 1 {
				i := base + bits.TrailingZeros64(w)
				for j := 0; j < a; j++ {
					kbuf[j] = cols[j][i]
				}
				out[m] = HashWords(seed, kbuf[:a:a])
				m++
			}
		}
	}
	return m
}

// ProbeColumnsSelInto probes only the selected lanes of a column-major
// key run: cols is one slice per key word with at least n lanes, sel is
// the selection bitmap, and deltas is flat m×NumAggs() in selection
// (ascending lane) order, where m is the selection popcount. Victims
// land in out in columnar form, reset first. Table contents, victims,
// and statistics are bit-identical to calling ProbeInto on each
// selected lane in order. Sum-only arity-2 tables commit through
// commitSum2; every other shape takes the generic commit.
func (t *Table) ProbeColumnsSelInto(cols [][]uint32, deltas []int64, n int, sel []uint64, out *VictimRun) {
	a := t.arity
	na := len(t.ops)
	if len(cols) != a {
		panic(fmt.Sprintf("hashtab: %d key columns for table %v (arity %d)", len(cols), t.rel, a))
	}
	for j := 0; j < a; j++ {
		if len(cols[j]) < n {
			panic(fmt.Sprintf("hashtab: key column %d has %d lanes, need %d, for table %v", j, len(cols[j]), n, t.rel))
		}
	}
	m := selCount(sel, n)
	if len(deltas) != m*na {
		panic(fmt.Sprintf("hashtab: %d batch deltas for %d selected probes of table %v (%d aggs)", len(deltas), m, t.rel, na))
	}
	out.Reset()
	if m == 0 {
		return
	}
	if cap(t.batchIdx) < m {
		t.batchIdx = make([]int32, m)
		t.batchTag = make([]uint8, m)
		t.batchVic = make([]uint8, m)
	}
	if cap(t.batchLane) < m {
		t.batchLane = make([]int32, m)
	}
	idx := t.batchIdx[:m]
	tg := t.batchTag[:m]
	vic := t.batchVic[:m]
	lane := t.batchLane[:m]

	// Setup pass: the per-arity hash kernels fused with group
	// classification, visiting only set bits; the lane of each compact
	// entry is recorded for the commit pass's key gather.
	nw := selWords(n)
	var kbuf [attr.MaxAttrs]uint32
	k := 0
	switch a {
	case 1:
		c0 := cols[0]
		init := t.seed ^ gamma1
		for wi := 0; wi < nw; wi++ {
			lbase := wi << 6
			for w := sel[wi]; w != 0; w &= w - 1 {
				i := lbase + bits.TrailingZeros64(w)
				h := mixWord(init, uint64(c0[i]))
				base, tag := t.group(h)
				idx[k] = int32(base)
				tg[k] = tag
				vic[k] = uint8(t.victimSlot(base, h) - base)
				lane[k] = int32(i)
				k++
			}
		}
	case 2:
		c0, c1 := cols[0], cols[1]
		init := t.seed ^ gamma2
		for wi := 0; wi < nw; wi++ {
			lbase := wi << 6
			for w := sel[wi]; w != 0; w &= w - 1 {
				i := lbase + bits.TrailingZeros64(w)
				h := mixWord(init, uint64(c0[i])|uint64(c1[i])<<32)
				base, tag := t.group(h)
				idx[k] = int32(base)
				tg[k] = tag
				vic[k] = uint8(t.victimSlot(base, h) - base)
				lane[k] = int32(i)
				k++
			}
		}
	case 3:
		c0, c1, c2 := cols[0], cols[1], cols[2]
		init := t.seed ^ gamma3
		for wi := 0; wi < nw; wi++ {
			lbase := wi << 6
			for w := sel[wi]; w != 0; w &= w - 1 {
				i := lbase + bits.TrailingZeros64(w)
				h := mixWord(mixWord(init, uint64(c0[i])|uint64(c1[i])<<32), uint64(c2[i]))
				base, tag := t.group(h)
				idx[k] = int32(base)
				tg[k] = tag
				vic[k] = uint8(t.victimSlot(base, h) - base)
				lane[k] = int32(i)
				k++
			}
		}
	case 4:
		c0, c1, c2, c3 := cols[0], cols[1], cols[2], cols[3]
		init := t.seed ^ gamma4
		for wi := 0; wi < nw; wi++ {
			lbase := wi << 6
			for w := sel[wi]; w != 0; w &= w - 1 {
				i := lbase + bits.TrailingZeros64(w)
				h := mixWord(mixWord(init, uint64(c0[i])|uint64(c1[i])<<32), uint64(c2[i])|uint64(c3[i])<<32)
				base, tag := t.group(h)
				idx[k] = int32(base)
				tg[k] = tag
				vic[k] = uint8(t.victimSlot(base, h) - base)
				lane[k] = int32(i)
				k++
			}
		}
	default:
		for wi := 0; wi < nw; wi++ {
			lbase := wi << 6
			for w := sel[wi]; w != 0; w &= w - 1 {
				i := lbase + bits.TrailingZeros64(w)
				for j := 0; j < a; j++ {
					kbuf[j] = cols[j][i]
				}
				h := t.hash(kbuf[:a:a])
				base, tag := t.group(h)
				idx[k] = int32(base)
				tg[k] = tag
				vic[k] = uint8(t.victimSlot(base, h) - base)
				lane[k] = int32(i)
				k++
			}
		}
	}

	// Commit pass: resolve in order against fresh group state, keeping
	// the group prefetchDist probes ahead in flight; keys gather through
	// the recorded lanes.
	pf := t.SpaceUnits()*4 >= prefetchMinBytes
	if pf {
		for k := 0; k < prefetchDist && k < m; k++ {
			t.prefetchGroup(int(idx[k]), int(vic[k]))
		}
	}
	if t.fastSum2 {
		c0, c1 := cols[0], cols[1]
		for k := 0; k < m; k++ {
			if pf && k+prefetchDist < m {
				t.prefetchGroup(int(idx[k+prefetchDist]), int(vic[k+prefetchDist]))
			}
			t.stats.Probes++
			l := lane[k]
			t.commitSum2(int(idx[k]), tg[k], int(vic[k]), uint64(c0[l])|uint64(c1[l])<<32, deltas[k], out)
		}
		return
	}
	for k := 0; k < m; k++ {
		if pf && k+prefetchDist < m {
			t.prefetchGroup(int(idx[k+prefetchDist]), int(vic[k+prefetchDist]))
		}
		t.stats.Probes++
		l := int(lane[k])
		for j := 0; j < a; j++ {
			kbuf[j] = cols[j][l]
		}
		t.commitProbe(int(idx[k]), tg[k], int(vic[k]), kbuf[:a:a], deltas[k*na:k*na+na:k*na+na], out)
	}
}
