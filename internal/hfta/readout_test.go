package hfta

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/hashtab"
	"repro/internal/lfta"
)

var sumMinMax = []lfta.AggSpec{
	{Op: hashtab.Sum, Input: -1},
	{Op: hashtab.Min, Input: 0},
	{Op: hashtab.Max, Input: 1},
}

// bruteModel is the read-out oracle: the plain map walk the aggregator
// used to be, sharing nothing with the flat store — collect, then sort by
// lessKeys.
type bruteModel map[uint32]map[string]*Row

func (m bruteModel) fold(rel attr.Set, epoch uint32, key []uint32, deltas []int64, specs []lfta.AggSpec) {
	if m[epoch] == nil {
		m[epoch] = map[string]*Row{}
	}
	r := m[epoch][PackKey(key)]
	if r == nil {
		r = &Row{Rel: rel, Epoch: epoch, Key: slices.Clone(key), Aggs: identities(specs)}
		m[epoch][PackKey(key)] = r
	}
	for j, spec := range specs {
		r.Aggs[j] = spec.Op.Combine(r.Aggs[j], deltas[j])
	}
}

func (m bruteModel) rows(epoch uint32) []Row {
	var out []Row
	for _, r := range m[epoch] {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return lessKeys(out[i].Key, out[j].Key) })
	return out
}

// boundaryKeys returns keys of the given arity that put each of 0, 1,
// 1<<31 and MaxUint32 in every key position (the other positions cycling
// through the same values, so high and low words, and first and last
// attributes, all see every boundary), plus random fill.
func boundaryKeys(rng *rand.Rand, arity int) [][]uint32 {
	bounds := []uint32{0, 1, 1 << 31, math.MaxUint32}
	var keys [][]uint32
	for pos := 0; pos < arity; pos++ {
		for bi, b := range bounds {
			for rot := 0; rot < len(bounds); rot++ {
				k := make([]uint32, arity)
				for i := range k {
					k[i] = bounds[(bi+rot+i)%len(bounds)]
				}
				k[pos] = b
				keys = append(keys, k)
			}
		}
	}
	for n := 0; n < 300; n++ {
		k := make([]uint32, arity)
		for i := range k {
			k[i] = rng.Uint32() >> uint(rng.Intn(32))
		}
		keys = append(keys, k)
	}
	return keys
}

// TestRowsMatchBruteForce: the log plus sort-fold read-out must equal the
// brute-force model for the packed sort kernel (arity 1, 2) and the
// comparison path (3, 8, 9), with boundary values in every key position,
// several live epochs, and sum/min/max aggregates (identity
// initialisation). The rows read before a Drop must also survive it and
// the store's reuse unchanged.
func TestRowsMatchBruteForce(t *testing.T) {
	for _, arity := range []int{1, 2, 3, 8, 9} {
		t.Run(fmt.Sprintf("arity=%d", arity), func(t *testing.T) {
			rel := mergeRunRel(arity)
			rng := rand.New(rand.NewSource(int64(160 + arity)))
			keys := boundaryKeys(rng, arity)
			agg, err := New([]attr.Set{rel}, sumMinMax)
			if err != nil {
				t.Fatal(err)
			}
			model := bruteModel{}
			const epochs = 3
			for round := 0; round < 3*len(keys); round++ {
				key := keys[rng.Intn(len(keys))]
				epoch := uint32(rng.Intn(epochs))
				deltas := []int64{int64(rng.Intn(9) + 1), rng.Int63n(2000) - 1000, rng.Int63n(2000) - 1000}
				agg.MergeRun(rel, epoch, key, deltas)
				model.fold(rel, epoch, key, deltas, sumMinMax)
			}
			kept := make([][]Row, epochs)
			for e := uint32(0); e < epochs; e++ {
				kept[e] = agg.Rows(rel, e)
				if want := model.rows(e); !Equal(kept[e], want) {
					t.Fatalf("epoch %d: read-out (%d rows) differs from brute force (%d rows)", e, len(kept[e]), len(want))
				}
				if got := agg.GroupCount(rel, e); got != len(kept[e]) {
					t.Errorf("epoch %d: GroupCount %d, %d rows", e, got, len(kept[e]))
				}
			}
			// Drop everything and refill the recycled tables with other
			// values: rows already read out must not move.
			for e := uint32(0); e < epochs; e++ {
				agg.Drop(e)
			}
			for _, key := range keys {
				agg.MergeRun(rel, 1, key, []int64{77, -5000, 5000})
			}
			for e := uint32(0); e < epochs; e++ {
				if !Equal(kept[e], model.rows(e)) {
					t.Fatalf("epoch %d: rows read before Drop changed after Drop and table reuse", e)
				}
			}
		})
	}
}

// TestRowsAllocsConstant: a read-out is three allocations (flat keys, flat
// aggs, the rows) whatever the group count, on the packed sort kernel and
// on the comparison-sort path.
func TestRowsAllocsConstant(t *testing.T) {
	for _, arity := range []int{2, 3} {
		rel := mergeRunRel(arity)
		var per [2]float64
		for i, groups := range []int{16, 16384} {
			agg, err := New([]attr.Set{rel}, lfta.CountStar)
			if err != nil {
				t.Fatal(err)
			}
			key := make([]uint32, arity)
			for g := 0; g < groups; g++ {
				for a := range key {
					key[a] = uint32(g * (a + 3))
				}
				agg.MergeRun(rel, 5, key, []int64{1})
			}
			agg.Rows(rel, 5) // first call sizes the scratch
			per[i] = testing.AllocsPerRun(20, func() {
				if rows := agg.Rows(rel, 5); len(rows) != groups {
					t.Fatalf("%d rows; want %d", len(rows), groups)
				}
			})
		}
		if per[0] != per[1] || per[1] > 4 {
			t.Errorf("arity %d: Rows allocated %.0f times for 16 groups and %.0f for 16384; want the same constant ≤ 4",
				arity, per[0], per[1])
		}
	}
}

// TestRowsConcurrentWithMergeRun is pipeline-par's access pattern: two
// workers fold runs into epoch e while the client reads epoch e−3 out
// and drops it. Run under -race in CI.
func TestRowsConcurrentWithMergeRun(t *testing.T) {
	rel := mergeRunRel(2)
	agg, err := New([]attr.Set{rel}, lfta.CountStar)
	if err != nil {
		t.Fatal(err)
	}
	const (
		epochs = 24
		lag    = 3
		perRun = 256
		groups = 500
	)
	// Each worker reports every epoch it finishes; the client takes both
	// reports before it treats the epoch as complete, then reads e−lag
	// while the workers are already folding e+1.
	var wg sync.WaitGroup
	var done [2]chan uint32
	for w := range done {
		done[w] = make(chan uint32)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(170 + w)))
			keys := make([]uint32, 2*perRun)
			deltas := make([]int64, perRun)
			for e := uint32(0); e < epochs; e++ {
				for run := 0; run < 4; run++ {
					for i := range deltas {
						g := uint32(rng.Intn(groups))
						keys[2*i], keys[2*i+1], deltas[i] = g, g*13, 1
					}
					agg.MergeRun(rel, e, keys, deltas)
				}
				done[w] <- e
			}
		}(w)
	}
	check := func(e uint32) {
		var total int64
		rows := agg.Rows(rel, e)
		for i, r := range rows {
			total += r.Aggs[0]
			if i > 0 && !lessKeys(rows[i-1].Key, r.Key) {
				t.Errorf("epoch %d: rows %d and %d out of order", e, i-1, i)
			}
		}
		if total != 2*4*perRun {
			t.Errorf("epoch %d: counts sum to %d; want %d", e, total, 2*4*perRun)
		}
		agg.Drop(e)
	}
	for e := uint32(0); e < epochs; e++ {
		<-done[0]
		<-done[1]
		if e >= lag {
			check(e - lag)
		}
	}
	wg.Wait()
	for e := uint32(epochs - lag); e < epochs; e++ {
		check(e)
	}
}
