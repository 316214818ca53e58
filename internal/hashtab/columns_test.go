package hashtab

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/attr"
)

// TestHashColumnsMatchesHashWords: the columnar hash kernels must be
// bit-identical to HashWords on every arity (unrolled 1–4 plus the
// gather fallback), or columnar and record-major shard routing would
// disagree.
func TestHashColumnsMatchesHashWords(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for arity := 1; arity <= 6; arity++ {
		const n = 1000
		cols := make([][]uint32, arity)
		for a := range cols {
			cols[a] = make([]uint32, n)
			for i := range cols[a] {
				cols[a][i] = rng.Uint32()
			}
		}
		for _, seed := range []uint64{0, 1, 0x5bd1e995bc9e3779, rng.Uint64()} {
			out := make([]uint64, n)
			HashColumns(seed, cols, out)
			key := make([]uint32, arity)
			for i := 0; i < n; i++ {
				for a := range cols {
					key[a] = cols[a][i]
				}
				if want := HashWords(seed, key); out[i] != want {
					t.Fatalf("arity %d seed %#x row %d: HashColumns %#x, HashWords %#x", arity, seed, i, out[i], want)
				}
			}
		}
	}
}

// relOfArity returns a query relation with the given number of
// attributes.
func relOfArity(a int) attr.Set {
	return attr.MustParseSet("ABCDEFGH"[:a])
}

// drainSorted collects a table's resident entries in deterministic
// order.
func drainSorted(t *Table) []Entry {
	var out []Entry
	t.Drain(func(e Entry) {
		out = append(out, Entry{
			Key:     append([]uint32(nil), e.Key...),
			Aggs:    append([]int64(nil), e.Aggs...),
			Updates: e.Updates,
		})
	})
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i].Key {
			if out[i].Key[k] != out[j].Key[k] {
				return out[i].Key[k] < out[j].Key[k]
			}
		}
		return false
	})
	return out
}

// TestProbeColumnsMatchesBatch: feeding the same probe sequence through
// ProbeColumnsSelInto with a saturated selection (column-major — how
// unfiltered batches, sealed router runs and the engine's staging flush
// arrive) and ProbeBatchInto (record-major gather of the same columns)
// must produce identical victims, statistics, and final table contents —
// at run lengths on both sides of a selection-word boundary, on every
// arity, on sum-only aggregates (the fastSum2 kernel at arity 2 on the
// record-major side) and multi-agg lists, and under both tag-scan
// kernels.
func TestProbeColumnsMatchesBatch(t *testing.T) {
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
					rng := rand.New(rand.NewSource(int64(60 + arity)))
					const (
						buckets = 64 // tiny: heavy eviction traffic
						total   = 5000
					)
					rel := relOfArity(arity)
					colTab := MustNew(rel, buckets, ops, 9)
					batTab := MustNew(rel, buckets, ops, 9)

					cols := make([][]uint32, arity)
					var colOut, batOut VictimRun
					flat := make([]uint32, 0, 512*arity)
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
						deltas := make([]int64, n*len(ops))
						for i := range deltas {
							deltas[i] = int64(rng.Intn(50) + 1)
						}
						colTab.ProbeColumnsSelInto(cols, deltas, n, randomSel(rng, n, 100), &colOut)

						flat = flat[:0]
						for i := 0; i < n; i++ {
							for a := 0; a < arity; a++ {
								flat = append(flat, cols[a][i])
							}
						}
						batTab.ProbeBatchInto(flat, deltas, &batOut)

						if colOut.Len() != batOut.Len() {
							t.Fatalf("victim counts diverge: columnar %d, batch %d", colOut.Len(), batOut.Len())
						}
						if !reflect.DeepEqual(colOut.Keys, batOut.Keys) || !reflect.DeepEqual(colOut.Aggs, batOut.Aggs) {
							t.Fatal("victim runs diverge between columnar and batch probes")
						}
					}
					if cs, bs := colTab.Stats(), batTab.Stats(); cs != bs {
						t.Fatalf("stats diverge:\ncolumnar %+v\nbatch    %+v", cs, bs)
					}
					if !reflect.DeepEqual(drainSorted(colTab), drainSorted(batTab)) {
						t.Fatal("drained table contents diverge between columnar and batch probes")
					}
				})
			}
		}
	}
}
