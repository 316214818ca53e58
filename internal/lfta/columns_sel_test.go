package lfta_test

import (
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/hashtab"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/stream"
)

// Property: ProcessColumnsSel over a selection bitmap is
// indistinguishable from feeding the selected lanes, in lane order,
// through scalar Process — same HFTA rows, same op ledger, same per-table
// counters — across aggregate shapes (constant-delta and
// attribute-valued), cascade depths, selection densities, and both
// tag-scan kernels.
func TestColumnarSelectionEquivalence(t *testing.T) {
	defer hashtab.SetSIMD(hashtab.SIMDEnabled())
	kernels := []bool{false}
	if hashtab.SIMDAvailable() {
		kernels = append(kernels, true)
	}
	type shape struct {
		spec    string
		queries []attr.Set
		aggs    []lfta.AggSpec
	}
	shapes := []shape{
		{
			spec:    "ABCD(AB BC CD)",
			queries: []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("BC"), attr.MustParseSet("CD")},
			aggs:    lfta.CountStar,
		},
		{
			spec: "ABCD(ABC(AB(A)) CD)",
			queries: []attr.Set{
				attr.MustParseSet("AB"), attr.MustParseSet("A"), attr.MustParseSet("CD"),
			},
			aggs: []lfta.AggSpec{
				{Op: hashtab.Sum, Input: -1},
				{Op: hashtab.Sum, Input: 2},
				{Op: hashtab.Min, Input: 1},
				{Op: hashtab.Max, Input: 3},
			},
		},
	}
	for _, simd := range kernels {
		hashtab.SetSIMD(simd)
		for si, sh := range shapes {
			cfg, err := feedgraph.ParseConfig(sh.spec, sh.queries)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7400 + int64(si)))
			schema := stream.MustSchema(4)
			u, err := gen.UniformUniverse(rng, schema, 30+rng.Intn(300), 30)
			if err != nil {
				t.Fatal(err)
			}
			recs := gen.Uniform(rng, u, 4000+rng.Intn(6000), uint32(20+rng.Intn(60)))
			alloc := cost.Alloc{}
			for i, r := range cfg.Rels {
				alloc[r] = 7 + i*5 + rng.Intn(40)
			}
			seed := uint64(7500 + si)

			selAgg, err := hfta.New(sh.queries, sh.aggs)
			if err != nil {
				t.Fatal(err)
			}
			selRT, err := lfta.New(cfg, alloc, sh.aggs, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			selRT.SetRunSink(selAgg.MergeRun, 16)

			scalarAgg, err := hfta.New(sh.queries, sh.aggs)
			if err != nil {
				t.Fatal(err)
			}
			scalarRT, err := lfta.New(cfg, alloc, sh.aggs, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			scalarRT.SetRunSink(scalarAgg.MergeRun, 16)

			const width = 4
			pcts := []int{0, 1, 17, 55, 100}
			pos := 0
			epoch := uint32(0)
			for pos < len(recs) {
				n := 1 + rng.Intn(300)
				if len(recs)-pos < n {
					n = len(recs) - pos
				}
				cols := make([][]uint32, width)
				for a := range cols {
					cols[a] = make([]uint32, n)
					for i := 0; i < n; i++ {
						cols[a][i] = recs[pos+i].Attrs[a]
					}
				}
				pos += n

				pct := pcts[rng.Intn(len(pcts))]
				sel := make([]uint64, (n+63)>>6)
				for i := 0; i < n; i++ {
					if rng.Intn(100) < pct {
						sel[i>>6] |= 1 << (uint(i) & 63)
						scalarRT.Process(recs[pos-n+i], epoch)
					}
				}
				selRT.ProcessColumnsSel(cols, n, sel, epoch)
				// Occasional epoch roll to cover run sealing.
				if rng.Intn(4) == 0 {
					selRT.FlushEpoch()
					scalarRT.FlushEpoch()
					epoch++
				}
			}
			selRT.FlushEpoch()
			scalarRT.FlushEpoch()

			if !hfta.Equal(selAgg.AllRows(), scalarAgg.AllRows()) {
				t.Fatalf("kernel=%s shape %d: selected rows differ from scalar", hashtab.KernelName(), si)
			}
			if so, do := selRT.Ops(), scalarRT.Ops(); so != do {
				t.Fatalf("kernel=%s shape %d: ops diverge: selected %+v scalar %+v", hashtab.KernelName(), si, so, do)
			}
			ss, ds := selRT.TableStats(), scalarRT.TableStats()
			for rel, s := range ss {
				if d := ds[rel]; d != s {
					t.Fatalf("kernel=%s shape %d table %v stats diverge:\nselected %+v\nscalar   %+v", hashtab.KernelName(), si, rel, s, d)
				}
			}
		}
	}
}

// Property: ShardColumns routes every selected lane to the shard the
// routing hash of its full attribute vector reduces to, in ascending lane
// order.
func TestColumnarShardRouting(t *testing.T) {
	queries := []attr.Set{attr.MustParseSet("AB")}
	cfg, err := feedgraph.ParseConfig("ABCD(AB)", queries)
	if err != nil {
		t.Fatal(err)
	}
	alloc := cost.Alloc{attr.MustParseSet("AB"): 32, attr.MustParseSet("ABCD"): 32}
	rng := rand.New(rand.NewSource(7600))
	for _, nsh := range []int{1, 2, 4, 8} {
		s, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 21, nil, nsh)
		if err != nil {
			t.Fatal(err)
		}
		const width = 4
		for trial := 0; trial < 30; trial++ {
			n := 1 + rng.Intn(300)
			cols := make([][]uint32, width)
			for a := range cols {
				cols[a] = make([]uint32, n)
				for i := range cols[a] {
					cols[a][i] = rng.Uint32() >> 16
				}
			}
			sel := make([]uint64, (n+63)>>6)
			var lanes []int
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					sel[i>>6] |= 1 << (uint(i) & 63)
					lanes = append(lanes, i)
				}
			}
			six := make([]int32, len(lanes))
			if got := s.ShardColumns(cols, n, sel, six); got != len(lanes) {
				t.Fatalf("%d shards: ShardColumns wrote %d, want %d", nsh, got, len(lanes))
			}
			attrs := make([]uint32, width)
			for k, i := range lanes {
				for a := 0; a < width; a++ {
					attrs[a] = cols[a][i]
				}
				want := hashtab.Reduce(hashtab.HashWords(lfta.ShardRouteSeed, attrs), nsh)
				if int(six[k]) != want {
					t.Fatalf("%d shards lane %d: ShardColumns %d, routing hash %d", nsh, i, six[k], want)
				}
			}
			lanes = lanes[:0]
		}
	}
}
