package lfta_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attr"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/stream"
)

// The sharded tests live in an external test package to exercise the
// lfta/hfta packages together the way callers compose them.

func shardedFixture(t *testing.T) (*feedgraph.Config, cost.Alloc, []stream.Record, []attr.Set) {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 300, 30)
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Uniform(rng, u, 30000, 40)
	queries := []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("BC"), attr.MustParseSet("CD")}
	cfg, err := feedgraph.ParseConfig("ABCD(AB BC CD)", queries)
	if err != nil {
		t.Fatal(err)
	}
	alloc := cost.Alloc{}
	for i, r := range cfg.Rels {
		alloc[r] = 13 + i*7 // tiny tables: plenty of collision traffic
	}
	return cfg, alloc, recs, queries
}

func TestNewShardedValidation(t *testing.T) {
	cfg, alloc, _, _ := shardedFixture(t)
	if _, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 1, nil, 0); err == nil {
		t.Error("zero shards accepted")
	}
	s, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 1, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 4 {
		t.Errorf("NumShards = %d", s.NumShards())
	}
}

// TestOneShardIsTheSingleRuntime: a 1-shard deployment is lfta.New — the
// only shard takes the base seed, so on a record run it has the same
// per-table counters, the same operation counts and the same transfer
// sequence entry for entry — and routes everything to shard 0.
func TestOneShardIsTheSingleRuntime(t *testing.T) {
	cfg, alloc, recs, _ := shardedFixture(t)
	var want, got []lfta.Eviction
	rt, err := lfta.New(cfg, alloc, lfta.CountStar, 9, func(ev lfta.Eviction) { want = append(want, ev) })
	if err != nil {
		t.Fatal(err)
	}
	s, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 9, func(ev lfta.Eviction) { got = append(got, ev) }, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantOps, err := rt.Run(stream.NewSliceSource(recs), 10)
	if err != nil {
		t.Fatal(err)
	}
	gotOps, err := s.Run(stream.NewSliceSource(recs), 10)
	if err != nil {
		t.Fatal(err)
	}
	if gotOps != wantOps || wantOps.Transfers == 0 {
		t.Errorf("one shard ran %+v; the single runtime %+v (want equal, with transfers)", gotOps, wantOps)
	}
	if !reflect.DeepEqual(s.TableStats(), rt.TableStats()) {
		t.Errorf("per-table counters differ:\n one shard %+v\n runtime   %+v", s.TableStats(), rt.TableStats())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("transfer sequences differ (%d entries; want %d)", len(got), len(want))
	}
	for i := range recs[:100] {
		if sh := s.ShardOf(&recs[i]); sh != 0 {
			t.Fatalf("record %d routed to shard %d of 1", i, sh)
		}
	}
}

func TestShardedSequentialExactness(t *testing.T) {
	cfg, alloc, recs, queries := shardedFixture(t)
	want := hfta.Reference(recs, queries, lfta.CountStar, 10)

	agg, err := hfta.New(queries, lfta.CountStar)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 9, agg.Sink(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := s.Run(stream.NewSliceSource(recs), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !hfta.Equal(agg.AllRows(), want) {
		t.Error("sharded pipeline answers differ from reference")
	}
	if ops.Records != uint64(len(recs)) {
		t.Errorf("records = %d; want %d", ops.Records, len(recs))
	}
	// Every shard saw work: with a uniform hash over 300 groups and 4
	// shards, an empty shard would indicate a broken partition function.
	for i := 0; i < s.NumShards(); i++ {
		if s.Shard(i).Ops().Records == 0 {
			t.Errorf("shard %d processed nothing", i)
		}
	}
}

func TestShardedParallelExactness(t *testing.T) {
	cfg, alloc, recs, queries := shardedFixture(t)
	want := hfta.Reference(recs, queries, lfta.CountStar, 10)

	agg, err := hfta.New(queries, lfta.CountStar)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 9, agg.Sink(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := s.RunParallel(stream.NewSliceSource(recs), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !hfta.Equal(agg.AllRows(), want) {
		t.Error("parallel sharded pipeline answers differ from reference")
	}
	if ops.Records != uint64(len(recs)) {
		t.Errorf("records = %d; want %d", ops.Records, len(recs))
	}
}

func TestShardedMatchesSingleRuntimeResults(t *testing.T) {
	// Sharding changes costs (smaller effective load per table) but never
	// results: 1-shard and 4-shard runs agree with each other exactly.
	cfg, alloc, recs, queries := shardedFixture(t)
	run := func(n int) []hfta.Row {
		agg, err := hfta.New(queries, lfta.CountStar)
		if err != nil {
			t.Fatal(err)
		}
		s, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 9, agg.Sink(), n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(stream.NewSliceSource(recs), 10); err != nil {
			t.Fatal(err)
		}
		return agg.AllRows()
	}
	if !hfta.Equal(run(1), run(4)) {
		t.Error("1-shard and 4-shard results differ")
	}
}

func TestShardedGroupStability(t *testing.T) {
	// All records of one group must land on the same shard, so shard
	// table stats reflect disjoint group populations.
	cfg, alloc, recs, _ := shardedFixture(t)
	type seen struct{ shard int }
	s, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 2, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	groupShard := map[string]seen{}
	for i := range recs {
		// Route through Process and infer the shard by record counts.
		before := make([]uint64, s.NumShards())
		for j := 0; j < s.NumShards(); j++ {
			before[j] = s.Shard(j).Ops().Records
		}
		s.Process(&recs[i], 0)
		shard := -1
		for j := 0; j < s.NumShards(); j++ {
			if s.Shard(j).Ops().Records != before[j] {
				shard = j
				break
			}
		}
		key := stream.GroupKey(attr.MustParseSet("ABCD"), recs[i])
		if prev, ok := groupShard[key]; ok && prev.shard != shard {
			t.Fatalf("group %s visited shards %d and %d", key, prev.shard, shard)
		}
		groupShard[key] = seen{shard: shard}
		if i > 2000 {
			break
		}
	}
}
