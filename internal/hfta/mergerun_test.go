package hfta

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/lfta"
)

// mergeRunRel returns a query relation with the given arity; ≤ 2 takes
// the read-out's packed-key sort kernel, wider the comparison sort.
func mergeRunRel(arity int) attr.Set {
	return attr.MustParseSet("ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:arity])
}

// TestMergeRunMatchesPerEntry: folding a run through MergeRun must
// produce exactly the state n one-entry MergeRun calls produce — across the
// packed and wide key arities, several epochs interleaved across
// runs, and duplicate groups within one run (where the stable sort's
// in-order combine matters for non-commutative-looking sequences like
// Min/Max chains). The universe then grows 100× on the logs a Drop
// recycled and shrinks back onto the now oversized ones.
func TestMergeRunMatchesPerEntry(t *testing.T) {
	specs := sumMinMax
	for _, arity := range []int{1, 2, 4, 8, 12} {
		t.Run(fmt.Sprintf("arity=%d", arity), func(t *testing.T) {
			rel := mergeRunRel(arity)
			rng := rand.New(rand.NewSource(int64(80 + arity)))

			runAgg, err := New([]attr.Set{rel}, specs)
			if err != nil {
				t.Fatal(err)
			}
			entAgg, err := New([]attr.Set{rel}, specs)
			if err != nil {
				t.Fatal(err)
			}
			na := len(specs)
			for cycle, universe := range []int{40, 4000, 40} {
				model := bruteModel{}
				for round := 0; round < 20+universe/50; round++ {
					n := 1 + rng.Intn(400)
					epoch := uint32(rng.Intn(4))
					keys := make([]uint32, 0, n*arity)
					deltas := make([]int64, 0, n*na)
					for i := 0; i < n; i++ {
						g := rng.Intn(universe) // 40: many in-run duplicates
						for a := 0; a < arity; a++ {
							keys = append(keys, uint32(g*(a+2)))
						}
						for j := 0; j < na; j++ {
							deltas = append(deltas, int64(rng.Intn(100)+1))
						}
					}
					runAgg.MergeRun(rel, epoch, keys, deltas)
					for i := 0; i < n; i++ {
						key, d := keys[i*arity:(i+1)*arity], deltas[i*na:(i+1)*na]
						entAgg.MergeRun(rel, epoch, key, d)
						model.fold(rel, epoch, key, d, specs)
					}
				}
				if !Equal(runAgg.AllRows(), entAgg.AllRows()) {
					t.Fatalf("cycle %d: MergeRun state differs from per-entry MergeRun state", cycle)
				}
				for e := uint32(0); e < 4; e++ {
					if !Equal(runAgg.Rows(rel, e), model.rows(e)) {
						t.Fatalf("cycle %d, epoch %d: MergeRun state differs from the brute-force model", cycle, e)
					}
					runAgg.Drop(e)
					entAgg.Drop(e)
				}
			}
		})
	}
}

// TestMergeRunConcurrent folds disjoint runs from several goroutines —
// the shape concurrent LFTA shard workers produce — and checks the
// total against a sequential fold. Run under -race in CI.
func TestMergeRunConcurrent(t *testing.T) {
	rel := mergeRunRel(2)
	specs := lfta.CountStar
	const (
		workers = 8
		rounds  = 50
		perRun  = 256
	)
	type run struct {
		epoch  uint32
		keys   []uint32
		deltas []int64
	}
	runs := make([][]run, workers)
	for w := range runs {
		rng := rand.New(rand.NewSource(int64(90 + w)))
		for r := 0; r < rounds; r++ {
			ru := run{epoch: uint32(r % 3)}
			for i := 0; i < perRun; i++ {
				g := rng.Intn(300)
				ru.keys = append(ru.keys, uint32(g), uint32(g*13))
				ru.deltas = append(ru.deltas, int64(rng.Intn(50)+1))
			}
			runs[w] = append(runs[w], ru)
		}
	}
	conc, err := New([]attr.Set{rel}, specs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, ru := range runs[w] {
				conc.MergeRun(rel, ru.epoch, ru.keys, ru.deltas)
			}
		}(w)
	}
	wg.Wait()
	seq, err := New([]attr.Set{rel}, specs)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for _, ru := range runs[w] {
			seq.MergeRun(rel, ru.epoch, ru.keys, ru.deltas)
		}
	}
	if !Equal(conc.AllRows(), seq.AllRows()) {
		t.Fatal("concurrent MergeRun total differs from sequential")
	}
}
