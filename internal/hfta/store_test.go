package hfta

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/hashtab"
	"repro/internal/lfta"
)

// countSumMinMax covers every aggregate the HFTA folds: count (a sum of
// ones), sum, min and max.
var countSumMinMax = []lfta.AggSpec{
	{Op: hashtab.Sum, Input: -1},
	{Op: hashtab.Sum, Input: 0},
	{Op: hashtab.Min, Input: 1},
	{Op: hashtab.Max, Input: 2},
}

// driveAggregator applies a stream of operations, each drawn from pick
// (pick(n) returns a choice in [0, n), ok false once the stream is out),
// to an aggregator and to bruteModel side by side: MergeRun runs of 1–300
// partials, one-entry runs, runs long enough to cross foldAt,
// read-outs and group counts in the middle of an epoch followed by more
// merges, Drop and Reset. After every operation each live log must hold
// at most 2·groups + foldAt partials; after every read-out the rows must
// equal the model's. It reports whether an append folded a log.
func driveAggregator(t *testing.T, arity int, pick func(n int) (int, bool)) (appendFolded bool) {
	t.Helper()
	rel := mergeRunRel(arity)
	specs := countSumMinMax
	agg, err := New([]attr.Set{rel}, specs)
	if err != nil {
		t.Fatal(err)
	}
	model := bruteModel{}
	const epochs = 3
	// run draws n partials of one epoch from a universe of the given
	// size, seeded by the stream so a fuzz input stays short.
	run := func(n, universe int, seed int) ([]uint32, []int64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		keys := make([]uint32, 0, n*arity)
		deltas := make([]int64, 0, n*len(specs))
		for i := 0; i < n; i++ {
			g := uint32(rng.Intn(universe))
			for a := 0; a < arity; a++ {
				keys = append(keys, g*uint32(2*a+1)^uint32(a)<<31)
			}
			deltas = append(deltas, 1, rng.Int63n(2000)-1000, rng.Int63n(2000)-1000, rng.Int63n(2000)-1000)
		}
		return keys, deltas
	}
	check := func(step int, e uint32) {
		rows, want := agg.Rows(rel, e), model.rows(e)
		if !Equal(rows, want) {
			t.Fatalf("step %d, epoch %d: %d rows differ from the model's %d", step, e, len(rows), len(want))
		}
		if got := agg.GroupCount(rel, e); got != len(want) {
			t.Fatalf("step %d, epoch %d: GroupCount %d; want %d", step, e, got, len(want))
		}
	}
	for step := 0; ; step++ {
		op, ok := pick(8)
		if !ok {
			break
		}
		e, _ := pick(epochs)
		epoch := uint32(e)
		universe, _ := pick(3)
		universe = []int{8, 1000, 1 << 20}[universe]
		seed, _ := pick(1 << 16)
		switch op {
		case 0, 1, 2: // one run
			n, _ := pick(300)
			keys, deltas := run(n+1, universe, seed)
			agg.MergeRun(rel, epoch, keys, deltas)
			for i := 0; i <= n; i++ {
				model.fold(rel, epoch, keys[i*arity:(i+1)*arity], deltas[i*len(specs):(i+1)*len(specs)], specs)
			}
		case 3: // one partial at a time, Reference's way
			n, _ := pick(64)
			if n == 0 {
				n = foldAt + 500 // crosses foldAt through one-entry runs alone
			}
			keys, deltas := run(n, universe, seed)
			for i := 0; i < n; i++ {
				k, d := keys[i*arity:(i+1)*arity], deltas[i*len(specs):(i+1)*len(specs)]
				agg.MergeRun(rel, epoch, k, d)
				model.fold(rel, epoch, k, d, specs)
			}
		case 4: // many runs into one epoch: crosses foldAt
			for r := 0; r < 70; r++ {
				keys, deltas := run(300, universe, seed+r)
				agg.MergeRun(rel, epoch, keys, deltas)
				for i := 0; i < 300; i++ {
					model.fold(rel, epoch, keys[i*arity:(i+1)*arity], deltas[i*len(specs):(i+1)*len(specs)], specs)
				}
			}
		case 5:
			check(step, epoch)
		case 6:
			agg.Drop(epoch)
			delete(model, epoch)
		case 7:
			if seed%4 == 0 {
				agg.Reset()
				clear(model)
			} else {
				check(step, epoch)
			}
		}
		rs := agg.state[rel]
		for e, l := range rs.logs {
			appendFolded = appendFolded || op <= 4 && l.folded > 0
			if n, bound := len(l.keys)/arity, 2*len(model[e])+foldAt; n > bound {
				t.Fatalf("step %d: epoch %d's log holds %d partials for %d groups; bound %d", step, e, n, len(model[e]), bound)
			}
		}
		var live []uint32
		for e := range model {
			live = append(live, e)
		}
		slices.Sort(live)
		if got := agg.Epochs(rel); !slices.Equal(got, live) {
			t.Fatalf("step %d: Epochs %v; model holds %v", step, got, live)
		}
	}
	for e := uint32(0); e < epochs; e++ {
		check(-1, e)
	}
	return appendFolded
}

// TestAggregatorMatchesModel drives seeded random operation streams over
// the packed arities (1, 2) and the comparison-sorted ones (3, 9).
func TestAggregatorMatchesModel(t *testing.T) {
	for _, arity := range []int{1, 2, 3, 9} {
		t.Run(fmt.Sprintf("arity=%d", arity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(350 + arity)))
			steps := 0
			folded := driveAggregator(t, arity, func(n int) (int, bool) {
				steps++
				return rng.Intn(n), steps <= 5*200
			})
			if !folded {
				t.Error("no append crossed foldAt")
			}
		})
	}
}

// FuzzAggregator reads the operation stream from the input, two bytes per
// choice; the first byte picks the arity.
func FuzzAggregator(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 9, 1, 44, 0, 5, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{1, 0, 4, 0, 1, 0, 2, 0, 7, 0, 5, 0, 1, 0, 0, 0, 0, 0, 0, 0, 6, 0, 1})
	f.Add([]byte{2, 0, 3, 0, 2, 0, 0, 0, 0, 0, 0, 0, 7, 0, 2, 0, 1, 0, 0, 0, 4})
	f.Add([]byte{3, 0, 1, 0, 0, 0, 2, 1, 0, 1, 30, 0, 6, 0, 0, 0, 0, 0, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		arity := []int{1, 2, 3, 9}[data[0]%4]
		data = data[1:]
		driveAggregator(t, arity, func(n int) (int, bool) {
			if len(data) < 2 {
				return 0, false
			}
			v := int(binary.BigEndian.Uint16(data))
			data = data[2:]
			return v % n, true
		})
	})
}

// TestSortKernelMatchesStableSort holds the read-out's sort kernel to
// slices.SortStableFunc: the same key order, and through perm the same
// order among equal keys. The inputs cover the insertion-only sizes,
// all-equal keys, keys that differ in one byte, keys with the top bit
// set, and a skew that crowds one bucket past insertionMax, so its LSD
// fallback runs.
func TestSortKernelMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	gens := map[string]func(i int) uint64{
		"random":     func(int) uint64 { return rng.Uint64() },
		"few":        func(int) uint64 { return uint64(rng.Intn(5)) << 40 },
		"all-equal":  func(int) uint64 { return 0xdeadbeef },
		"one-byte":   func(int) uint64 { return 0x1234_0000_0000_5678 | uint64(rng.Intn(256))<<24 },
		"top-bit":    func(int) uint64 { return 1<<63 | rng.Uint64()>>uint(rng.Intn(2)) },
		"skew":       func(i int) uint64 { return skewKey(i, rng) },
		"dup-skewed": func(i int) uint64 { return skewKey(i, rng) &^ 0xffff },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 17, 8192} {
			sc := &readScratch{}
			for round := 0; round < 2; round++ { // the second reuses the scratch
				keys := sc.load(n)
				for i := range keys {
					keys[i] = gen(i)
				}
				orig := slices.Clone(keys)
				want := make([]uint32, n)
				for i := range want {
					want[i] = uint32(i)
				}
				slices.SortStableFunc(want, func(x, y uint32) int { return cmp.Compare(orig[x], orig[y]) })
				sc.sort()
				if !slices.Equal(sc.perm, want) {
					t.Fatalf("%s, n=%d: permutation differs from the stable sort's", name, n)
				}
				for i, x := range sc.perm {
					if sc.packed[i] != orig[x] {
						t.Fatalf("%s, n=%d: packed[%d] = %#x does not travel with perm (%#x)", name, n, i, sc.packed[i], orig[x])
					}
				}
			}
		}
	}
}

// skewKey puts all keys but every 1000th in one most-significant-digit
// bucket, varying only in their low bits.
func skewKey(i int, rng *rand.Rand) uint64 {
	if i%1000 == 0 {
		return rng.Uint64() | 1<<63
	}
	return 0x0abc_0000_0000_0000 | rng.Uint64()>>24
}
