package lfta_test

import (
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/stream"
)

// Property: for any trace, RunParallel over n shards (per-shard run
// buffers, concurrent HFTA merge) produces exactly the same sorted rows
// as a single sequential Runtime — and both match the oracle. Sharding
// and batching change costs, never answers.
func TestParallelShardedEquivalence(t *testing.T) {
	queries := []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("BC"), attr.MustParseSet("CD")}
	cfg, err := feedgraph.ParseConfig("ABCD(AB BC CD)", queries)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(900 + int64(trial)))
		schema := stream.MustSchema(4)
		groups := 50 + rng.Intn(400)
		u, err := gen.UniformUniverse(rng, schema, groups, 30)
		if err != nil {
			t.Fatal(err)
		}
		nrecs := 2000 + rng.Intn(8000)
		duration := uint32(rng.Intn(90)) // several epochs at epochLen 10, or one at 0
		recs := gen.Uniform(rng, u, nrecs, duration)
		epochLen := uint32(10)
		if trial == 3 {
			epochLen = 0 // unbounded single epoch
		}
		alloc := cost.Alloc{}
		for i, r := range cfg.Rels {
			alloc[r] = 7 + i*5 + rng.Intn(40) // tiny tables: heavy eviction traffic
		}

		want := hfta.Reference(recs, queries, lfta.CountStar, epochLen)

		// Sequential single runtime, one record at a time.
		seqAgg, err := hfta.New(queries, lfta.CountStar)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := lfta.New(cfg, alloc, lfta.CountStar, 21, seqAgg.MergeRun)
		if err != nil {
			t.Fatal(err)
		}
		lfta.RunRecords(rt, recs, epochLen)
		seqRows := seqAgg.AllRows()
		if !hfta.Equal(seqRows, want) {
			t.Fatalf("trial %d: sequential runtime differs from reference", trial)
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
			// Small run buffers force mid-epoch seals as well as the
			// FlushEpoch drain.
			s.SetRunSink(parAgg.MergeRun, 16)
			ops, err := s.RunParallel(stream.NewSliceSource(recs), epochLen)
			if err != nil {
				t.Fatal(err)
			}
			if ops.Records != uint64(len(recs)) {
				t.Errorf("trial %d, %d shards: processed %d records, want %d", trial, n, ops.Records, len(recs))
			}
			if !hfta.Equal(parAgg.AllRows(), seqRows) {
				t.Errorf("trial %d: %d-shard RunParallel rows differ from single sequential runtime", trial, n)
			}
		}
	}
}

// The run transfer path must deliver the same answers whatever the run
// buffer's capacity, from one entry per run (a transfer per entry) to runs
// larger than an epoch's transfers, including epoch boundaries falling
// between run seals; all match the oracle.
func TestRunSinkBatchSizes(t *testing.T) {
	queries := []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("CD")}
	cfg, err := feedgraph.ParseConfig("ABCD(AB CD)", queries)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 200, 30)
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Uniform(rng, u, 12000, 50)
	alloc := cost.Alloc{}
	for i, r := range cfg.Rels {
		alloc[r] = 11 + i*3
	}
	want := hfta.Reference(recs, queries, lfta.CountStar, 10)
	for _, batch := range []int{1, 3, 64, 4096} {
		agg, err := hfta.New(queries, lfta.CountStar)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := lfta.New(cfg, alloc, lfta.CountStar, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetRunSink(agg.MergeRun, batch)
		lfta.RunRecords(rt, recs, 10)
		if !hfta.Equal(agg.AllRows(), want) {
			t.Errorf("batch size %d: rows differ from the reference", batch)
		}
	}
}
