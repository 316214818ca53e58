package hashtab

import (
	"math/rand"
	"testing"

	"repro/internal/attr"
)

// TestHashColumnsMatchesHashWords: the columnar hash kernel over a
// saturated selection (how the router hashes a dense pull batch) must be
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
			if m := HashColumnsSel(seed, cols, n, fullSel(n), out); m != n {
				t.Fatalf("arity %d: wrote %d hashes for %d lanes", arity, m, n)
			}
			key := make([]uint32, arity)
			for i := 0; i < n; i++ {
				for a := range cols {
					key[a] = cols[a][i]
				}
				if want := HashWords(seed, key); out[i] != want {
					t.Fatalf("arity %d seed %#x row %d: HashColumnsSel %#x, HashWords %#x", arity, seed, i, out[i], want)
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

// TestProbeColumnsMatchesBatch: a saturated selection — how unfiltered
// batches, sealed router runs, the engine's staging flush, and lfta's
// victim-run cascade arrive — must probe exactly as ProbeInto lane by
// lane on the generic commit (see checkColumnsMatchLanes).
func TestProbeColumnsMatchesBatch(t *testing.T) {
	checkColumnsMatchLanes(t, 60, 5000, []int{100})
}
