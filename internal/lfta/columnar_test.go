package lfta_test

import (
	"math/rand"
	"reflect"
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

// transferLog records every HFTA transfer of a runtime per relation, in
// delivery order, in front of an aggregator.
type transferLog struct {
	keys map[attr.Set][]uint32
	aggs map[attr.Set][]int64
}

func (l *transferLog) sink(agg *hfta.Aggregator) lfta.RunSink {
	l.keys, l.aggs = map[attr.Set][]uint32{}, map[attr.Set][]int64{}
	return func(rel attr.Set, epoch uint32, keys []uint32, aggs []int64) {
		l.keys[rel] = append(l.keys[rel], keys...)
		l.aggs[rel] = append(l.aggs[rel], aggs...)
		agg.MergeRun(rel, epoch, keys, aggs)
	}
}

// Property: ProcessColumns — the column-major run entry point the
// engine's staging flush and the shard pipeline feed, which hands
// ProcessColumnsSel a saturated selection — is indistinguishable from the
// scalar Process path at the run lengths where a saturated selection can
// go wrong: a single lane, one lane either side of a selection word, and
// either side of the staging run and the router batch. Same HFTA rows,
// same op ledger, same per-table counters, and the same per-relation
// transfer sequence entry for entry — every victim in eviction order,
// then the epoch flush in slot order, which is the tables' final
// contents. A selection whose tail word is not masked selects lanes past
// the run and fails here at every length that is not a multiple of 64.
// Aggregate shapes cover both the constant-delta fast path and
// attribute-valued deltas, the cascade depth covers multi-level victim
// feeding, and both tag-scan kernels run.
func TestColumnarProcessEquivalence(t *testing.T) {
	defer hashtab.SetSIMD(hashtab.SIMDEnabled())
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
	runLens := []int{1, 63, 64, 65, 511, 512, 1024}
	const rounds = 4 // one epoch each
	perRound := 0
	for _, n := range runLens {
		perRound += n
	}
	for _, simd := range kernelSelections() {
		hashtab.SetSIMD(simd)
		for si, sh := range shapes {
			cfg, err := feedgraph.ParseConfig(sh.spec, sh.queries)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7100 + int64(si)))
			schema := stream.MustSchema(4)
			u, err := gen.UniformUniverse(rng, schema, 30+rng.Intn(400), 30)
			if err != nil {
				t.Fatal(err)
			}
			recs := gen.Uniform(rng, u, rounds*perRound, 50)
			alloc := cost.Alloc{}
			for i, r := range cfg.Rels {
				alloc[r] = 7 + i*5 + rng.Intn(40)
			}
			seed := uint64(7200 + si)

			// Small run buffers force mid-epoch seals as well as the
			// FlushEpoch drain.
			newLeg := func() (*lfta.Runtime, *hfta.Aggregator, *transferLog) {
				agg, err := hfta.New(sh.queries, sh.aggs)
				if err != nil {
					t.Fatal(err)
				}
				rt, err := lfta.New(cfg, alloc, sh.aggs, seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				log := &transferLog{}
				rt.SetRunSink(log.sink(agg), 16)
				return rt, agg, log
			}
			scalar, scalarAgg, scalarLog := newLeg()
			columnar, colAgg, colLog := newLeg()

			const width = 4
			var cb stream.ColumnBatch
			pos := 0
			for epoch := uint32(0); epoch < rounds; epoch++ {
				for _, n := range runLens {
					cb.Reset(width)
					for _, rec := range recs[pos : pos+n] {
						scalar.Process(rec, epoch)
						cb.Append(rec.Attrs, rec.Time)
					}
					pos += n
					columnar.ProcessColumns(cb.Cols, epoch)
				}
				scalar.FlushEpoch()
				columnar.FlushEpoch()
			}

			name := "kernel=" + hashtab.KernelName()
			if !hfta.Equal(colAgg.AllRows(), scalarAgg.AllRows()) {
				t.Fatalf("%s shape %d: columnar rows differ from scalar", name, si)
			}
			if so, co := scalar.Ops(), columnar.Ops(); so != co {
				t.Fatalf("%s shape %d: ops diverge: scalar %+v columnar %+v", name, si, so, co)
			}
			sstats, cstats := scalar.TableStats(), columnar.TableStats()
			for rel, ss := range sstats {
				if cs := cstats[rel]; cs != ss {
					t.Fatalf("%s shape %d: table %v stats diverge:\nscalar   %+v\ncolumnar %+v", name, si, rel, ss, cs)
				}
			}
			if !reflect.DeepEqual(colLog, scalarLog) {
				t.Fatalf("%s shape %d: transfer sequences (victims, final contents) diverge", name, si)
			}
		}
	}
}

// Property: the fully columnar routed deployment — ReadColumns source
// decode, two-pass hash/scatter routing, per-shard ProcessColumns, run
// sink into the batched HFTA MergeRun — produces exactly the same sorted
// rows at every shard count as a single sequential runtime, and both
// match the oracle.
func TestColumnarRoutedShardedEquivalence(t *testing.T) {
	queries := []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("BC"), attr.MustParseSet("CD")}
	cfg, err := feedgraph.ParseConfig("ABCD(AB BC CD)", queries)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(7300 + int64(trial)))
		schema := stream.MustSchema(4)
		u, err := gen.UniformUniverse(rng, schema, 50+rng.Intn(400), 30)
		if err != nil {
			t.Fatal(err)
		}
		recs := gen.Uniform(rng, u, 2000+rng.Intn(8000), uint32(rng.Intn(90)))
		epochLen := uint32(10)
		if trial == 3 {
			epochLen = 0 // unbounded single epoch
		}
		alloc := cost.Alloc{}
		for i, r := range cfg.Rels {
			alloc[r] = 7 + i*5 + rng.Intn(40)
		}

		want := hfta.Reference(recs, queries, lfta.CountStar, epochLen)

		seqAgg, err := hfta.New(queries, lfta.CountStar)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := lfta.New(cfg, alloc, lfta.CountStar, 21, nil)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetRunSink(seqAgg.MergeRun, 16)
		lfta.RunRecords(rt, recs, epochLen)
		seqRows := seqAgg.AllRows()
		if !hfta.Equal(seqRows, want) {
			t.Fatalf("trial %d: sequential run-sink runtime differs from reference", trial)
		}

		for _, n := range []int{1, 2, 4, 8} {
			parAgg, err := hfta.New(queries, lfta.CountStar)
			if err != nil {
				t.Fatal(err)
			}
			s, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 21, nil, n)
			if err != nil {
				t.Fatal(err)
			}
			// Small run buffers force concurrent mid-epoch MergeRun calls.
			s.SetRunSink(parAgg.MergeRun, 16)
			ops, err := s.RunParallel(stream.NewSliceSource(recs), epochLen)
			if err != nil {
				t.Fatal(err)
			}
			if ops.Records != uint64(len(recs)) {
				t.Errorf("trial %d, %d shards: processed %d records, want %d", trial, n, ops.Records, len(recs))
			}
			if !hfta.Equal(parAgg.AllRows(), seqRows) {
				t.Errorf("trial %d: %d-shard columnar RunParallel rows differ from sequential", trial, n)
			}
		}
	}
}
