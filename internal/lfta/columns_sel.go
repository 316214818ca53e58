package lfta

import (
	"math/bits"

	"repro/internal/hashtab"
	"repro/internal/selvec"
)

// Columnar ingestion — the runtime's one batch kernel. A vectorized WHERE
// hands the runtime a column batch plus a 64-bit-per-lane selection
// bitmap (the selvec convention: bit j of word w covers lane w*64+j, dead
// bits past the last lane zero) instead of a compacted copy. Dead lanes
// cost nothing here: the delta gather, the key hashing, and the probe
// setup all iterate set bits only, and each raw relation's key run is
// just a selection of the input columns (projection is free: no gather,
// contiguous or not). Results are bit-identical to feeding the selected
// records through Process one at a time, in lane order.

// ProcessColumns feeds every lane of a column-major run (cols is one
// slice per record attribute, all equally long) sharing one epoch: sealed
// router runs and the engine's scalar staging flush, which have no
// selection of their own, enter ProcessColumnsSel with a saturated one.
func (r *Runtime) ProcessColumns(cols [][]uint32, epoch uint32) {
	if len(cols) == 0 {
		return
	}
	n := len(cols[0])
	r.allSel = selvec.Grow(r.allSel, n)
	r.allSel.SetAll(n)
	r.ProcessColumnsSel(cols, n, r.allSel, epoch)
}

// ProcessColumnsSel feeds only the selected lanes of a column-major run
// (cols is one slice per record attribute, each with at least n lanes),
// all sharing one epoch. The whole run's victims cascade into child
// tables as runs rather than one depth-first probe chain per record; the
// feeding graph is a tree (each relation has exactly one parent), so
// every table still sees exactly the probe sequence that feeding the
// records through Process one at a time would send it — same outcomes,
// same counters, same final contents; only the memory access schedule
// changes.
func (r *Runtime) ProcessColumnsSel(cols [][]uint32, n int, sel []uint64, epoch uint32) {
	width := len(cols)
	if width == 0 || n == 0 {
		return
	}
	m := selvec.Bitmap(sel).Count(n)
	if m == 0 {
		return
	}
	r.beginEpoch(epoch)
	r.ops.Records += uint64(m)
	na := len(r.aggs)

	// Build the compact delta run (m×na, selection order). The
	// constant-delta block of prefilled ones works compactly as-is.
	need := m * na
	if cap(r.deltaRun) < need {
		r.deltaRun = make([]int64, need)
		if r.constDelta {
			for i := range r.deltaRun {
				r.deltaRun[i] = 1
			}
		}
	}
	dr := r.deltaRun[:need]
	if !r.constDelta {
		nw := (n + 63) >> 6
		k := 0
		for wi := 0; wi < nw; wi++ {
			lbase := wi << 6
			for w := sel[wi]; w != 0; w &= w - 1 {
				i := lbase + bits.TrailingZeros64(w)
				for j, a := range r.aggs {
					if a.Input < 0 {
						dr[k*na+j] = 1
					} else {
						dr[k*na+j] = int64(cols[a.Input][i])
					}
				}
				k++
			}
		}
	}

	if cap(r.colSel) < width {
		r.colSel = make([][]uint32, 0, width)
	}
	for _, ni := range r.rawIdx {
		nd := &r.nodes[ni]
		kc := r.colSel[:0]
		for _, id := range nd.ids {
			kc = append(kc, cols[id])
		}
		r.colSel = kc
		f := r.runFrame(0)
		r.ops.Probes += uint64(m)
		nd.tab.ProbeColumnsSelInto(kc, dr, n, sel, &f.victims)
		r.cascadeRun(ni, &f.victims, 1)
	}
	// Drop the borrowed column references so the caller's batch can be
	// recycled without this scratch pinning it.
	for i := range r.colSel {
		r.colSel[i] = nil
	}
	r.colSel = r.colSel[:0]
}

// ShardColumns hashes the selected lanes of a column batch (the full
// attribute vector, one slice per attribute) to shard indices, written
// compactly in ascending-lane order into six; it returns the number of
// entries written. A lane routes to
// hashtab.Reduce(hashtab.HashWords(shardRouteSeed, attrs), NumShards()), a
// pure function of its attribute vector, so every group stays on one
// shard and checkpoint-resumed deployments route the same. It is the one
// router: the engine's admission and RunParallel both call it.
func (s *Sharded) ShardColumns(cols [][]uint32, n int, sel []uint64, six []int32) int {
	m := selvec.Bitmap(sel).Count(n)
	if m == 0 {
		return 0
	}
	if cap(s.routeHash) < m {
		s.routeHash = make([]uint64, m)
	}
	hb := s.routeHash[:m]
	hashtab.HashColumnsSel(shardRouteSeed, cols, n, sel, hb)
	for k, h := range hb {
		six[k] = int32(hashtab.Reduce(h, len(s.shards)))
	}
	return m
}
