package lfta_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attr"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/selvec"
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
	var want, got []lfta.Transfer
	rt, err := lfta.New(cfg, alloc, lfta.CountStar, 9, lfta.Collect(&want))
	if err != nil {
		t.Fatal(err)
	}
	s, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 9, lfta.Collect(&got), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := lfta.RunRecords(rt, recs, 10)
	gotOps := lfta.RunShardedRecords(s, recs, 10)
	if gotOps != wantOps || wantOps.Transfers == 0 {
		t.Errorf("one shard ran %+v; the single runtime %+v (want equal, with transfers)", gotOps, wantOps)
	}
	if !reflect.DeepEqual(s.TableStats(), rt.TableStats()) {
		t.Errorf("per-table counters differ:\n one shard %+v\n runtime   %+v", s.TableStats(), rt.TableStats())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("transfer sequences differ (%d entries; want %d)", len(got), len(want))
	}
	cols, n := columnsOf(recs[:100])
	six := make([]int32, n)
	s.ShardColumns(cols, n, fullSel(n), six)
	for i, sh := range six {
		if sh != 0 {
			t.Fatalf("record %d routed to shard %d of 1", i, sh)
		}
	}
}

// columnsOf transposes records into column-major attribute slices.
func columnsOf(recs []stream.Record) ([][]uint32, int) {
	cols := make([][]uint32, len(recs[0].Attrs))
	for a := range cols {
		for _, rec := range recs {
			cols[a] = append(cols[a], rec.Attrs[a])
		}
	}
	return cols, len(recs)
}

// fullSel is the saturated selection over n lanes.
func fullSel(n int) []uint64 {
	sel := selvec.Grow(nil, n)
	sel.SetAll(n)
	return sel
}

func TestShardedSequentialExactness(t *testing.T) {
	cfg, alloc, recs, queries := shardedFixture(t)
	want := hfta.Reference(recs, queries, lfta.CountStar, 10)

	agg, err := hfta.New(queries, lfta.CountStar)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 9, agg.MergeRun, 4)
	if err != nil {
		t.Fatal(err)
	}
	ops := lfta.RunShardedRecords(s, recs, 10)
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
	s, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 9, agg.MergeRun, 8)
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
		s, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 9, agg.MergeRun, n)
		if err != nil {
			t.Fatal(err)
		}
		lfta.RunShardedRecords(s, recs, 10)
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
	s, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 2, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs = recs[:2002]
	cols, n := columnsOf(recs)
	six := make([]int32, n)
	s.ShardColumns(cols, n, fullSel(n), six)
	groupShard := map[string]int32{}
	for i := range recs {
		key := fmt.Sprint(attr.MustParseSet("ABCD").Project(recs[i].Attrs, nil))
		if prev, ok := groupShard[key]; ok && prev != six[i] {
			t.Fatalf("group %s visited shards %d and %d", key, prev, six[i])
		}
		groupShard[key] = six[i]
	}
	if len(groupShard) == len(recs) {
		t.Fatal("no group recurs in the sample: stability is untested")
	}
}
