package hashtab

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomSel builds a selection bitmap over n lanes with roughly the
// given pass probability (percent), dead tail bits zero.
func randomSel(rng *rand.Rand, n, pct int) []uint64 {
	sel := make([]uint64, selWords(n))
	for i := 0; i < n; i++ {
		if rng.Intn(100) < pct {
			sel[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return sel
}

// TestHashColumnsSelMatchesDense: hashing the selected lanes must be
// bit-identical to compacting them and hashing the compacted block under
// a saturated selection, on every arity, at sparse and dense selections.
func TestHashColumnsSelMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for arity := 1; arity <= 6; arity++ {
		for _, pct := range []int{0, 1, 30, 100} {
			n := 1 + rng.Intn(700)
			cols := make([][]uint32, arity)
			for a := range cols {
				cols[a] = make([]uint32, n)
				for i := range cols[a] {
					cols[a][i] = rng.Uint32()
				}
			}
			sel := randomSel(rng, n, pct)
			m := selCount(sel, n)
			got := make([]uint64, m)
			if wrote := HashColumnsSel(7, cols, n, sel, got); wrote != m {
				t.Fatalf("arity %d pct %d: wrote %d hashes, popcount %d", arity, pct, wrote, m)
			}

			compact := make([][]uint32, arity)
			for i := 0; i < n; i++ {
				if sel[i>>6]&(1<<(uint(i)&63)) != 0 {
					for a := range cols {
						compact[a] = append(compact[a], cols[a][i])
					}
				}
			}
			want := make([]uint64, m)
			HashColumnsSel(7, compact, m, fullSel(m), want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("arity %d pct %d: selected hashes diverge from dense", arity, pct)
			}
		}
	}
}

// TestProbeColumnsSelMatchesDense: probing the selected lanes of a
// column run at sparse and dense selections must probe exactly as
// ProbeInto on the selected lanes, in lane order, on the generic commit
// (see checkColumnsMatchLanes).
func TestProbeColumnsSelMatchesDense(t *testing.T) {
	checkColumnsMatchLanes(t, 80, 4000, []int{0, 1, 10, 50, 100})
}

// checkColumnsMatchLanes holds ProbeColumnsSelInto to a reference table
// on the generic commit, probed lane by lane with ProbeInto: same victims
// in the same order, same statistics, same final contents. It covers
// runs of random length drawn at the given selection densities (percent)
// on every arity, the sum-only shape (commitSum2 at arity 2) and a
// multi-agg list, under both tag-scan kernels.
func checkColumnsMatchLanes(t *testing.T, seed int64, total int, pcts []int) {
	defer SetSIMD(SIMDEnabled())
	kernels := []bool{false}
	if SIMDAvailable() {
		kernels = append(kernels, true)
	}
	aggShapes := map[string][]AggOp{
		"sum":   {Sum},
		"multi": {Sum, Min, Max},
	}
	for _, simd := range kernels {
		SetSIMD(simd)
		for arity := 1; arity <= 5; arity++ {
			for shapeName, ops := range aggShapes {
				t.Run(fmt.Sprintf("kernel=%s/arity=%d/%s", KernelName(), arity, shapeName), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed + int64(arity)))
					const buckets = 64 // tiny: heavy eviction traffic
					rel := relOfArity(arity)
					tab := MustNew(rel, buckets, ops, 9)
					ref := reference(rel, buckets, ops, 9)

					cols := make([][]uint32, arity)
					var out, refOut VictimRun
					for done := 0; done < total; {
						n := 1 + rng.Intn(512)
						if total-done < n {
							n = total - done
						}
						done += n
						for a := range cols {
							cols[a] = cols[a][:0]
						}
						for i := 0; i < n; i++ {
							g := rng.Intn(200)
							for a := range cols {
								cols[a] = append(cols[a], uint32(g*(a+3)+a))
							}
						}
						sel := randomSel(rng, n, pcts[rng.Intn(len(pcts))])
						deltas := make([]int64, selCount(sel, n)*len(ops))
						for i := range deltas {
							deltas[i] = int64(rng.Intn(50) + 1)
						}
						tab.ProbeColumnsSelInto(cols, deltas, n, sel, &out)
						probeLanes(ref, cols, deltas, n, sel, &refOut)
						if !sameRun(&out, &refOut) {
							t.Fatalf("victim runs diverge: columnar %d, lane by lane %d", out.Len(), refOut.Len())
						}
					}
					checkSameTable(t, tab, ref)
				})
			}
		}
	}
}
