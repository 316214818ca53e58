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
// bit-identical to compacting them and running the dense kernel, on
// every arity, at sparse and dense selections.
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
			HashColumns(7, compact, want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("arity %d pct %d: selected hashes diverge from dense", arity, pct)
			}
		}
	}
}

// TestProbeColumnsSelMatchesDense: probing the selected lanes of a
// column run must produce victims, statistics, and table contents
// bit-identical to compacting the selection into a dense record-major
// run and probing that with ProbeBatchInto — on every arity, on the
// sum-only shape (which the dense run takes through the monomorphic
// sum-2 kernel) and multi-agg lists, at sparse and dense selections,
// under both tag-scan kernels.
func TestProbeColumnsSelMatchesDense(t *testing.T) {
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
					rng := rand.New(rand.NewSource(int64(80 + arity)))
					const (
						buckets = 64 // tiny: heavy eviction traffic
						total   = 4000
					)
					rel := relOfArity(arity)
					selTab := MustNew(rel, buckets, ops, 9)
					denTab := MustNew(rel, buckets, ops, 9)

					cols := make([][]uint32, arity)
					var compact []uint32
					var selOut, denOut VictimRun
					pcts := []int{0, 1, 10, 50, 100}
					for done := 0; done < total; {
						n := 1 + rng.Intn(512)
						if total-done < n {
							n = total - done
						}
						done += n
						for a := range cols {
							cols[a] = cols[a][:0]
						}
						compact = compact[:0]
						for i := 0; i < n; i++ {
							g := rng.Intn(200)
							for a := range cols {
								cols[a] = append(cols[a], uint32(g*(a+3)+a))
							}
						}
						sel := randomSel(rng, n, pcts[rng.Intn(len(pcts))])
						m := selCount(sel, n)
						deltas := make([]int64, m*len(ops))
						for i := range deltas {
							deltas[i] = int64(rng.Intn(50) + 1)
						}
						selTab.ProbeColumnsSelInto(cols, deltas, n, sel, &selOut)

						for i := 0; i < n; i++ {
							if sel[i>>6]&(1<<(uint(i)&63)) != 0 {
								for a := range cols {
									compact = append(compact, cols[a][i])
								}
							}
						}
						denTab.ProbeBatchInto(compact, deltas, &denOut)

						if selOut.Len() != denOut.Len() {
							t.Fatalf("victim counts diverge: selected %d, dense %d", selOut.Len(), denOut.Len())
						}
						if !reflect.DeepEqual(selOut.Keys, denOut.Keys) || !reflect.DeepEqual(selOut.Aggs, denOut.Aggs) {
							t.Fatal("victim runs diverge between selected and dense probes")
						}
					}
					if ss, ds := selTab.Stats(), denTab.Stats(); ss != ds {
						t.Fatalf("stats diverge:\nselected %+v\ndense    %+v", ss, ds)
					}
					if !reflect.DeepEqual(drainSorted(selTab), drainSorted(denTab)) {
						t.Fatal("drained table contents diverge between selected and dense probes")
					}
				})
			}
		}
	}
}
