package hfta

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/attr"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/hashtab"
	"repro/internal/lfta"
	"repro/internal/stream"
)

func sets(names ...string) []attr.Set {
	out := make([]attr.Set, len(names))
	for i, n := range names {
		out[i] = attr.MustParseSet(n)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, lfta.CountStar); err == nil {
		t.Error("no queries accepted")
	}
	if _, err := New(sets("A"), nil); err == nil {
		t.Error("no aggregates accepted")
	}
	if _, err := New([]attr.Set{0}, lfta.CountStar); err == nil {
		t.Error("empty query accepted")
	}
}

// TestMergeRunAndRows merges one-entry runs: partials of one group
// combine, groups and epochs stay apart, and a relation that is not a
// query is ignored.
func TestMergeRunAndRows(t *testing.T) {
	a, err := New(sets("A"), lfta.CountStar)
	if err != nil {
		t.Fatal(err)
	}
	rel := attr.MustParseSet("A")
	// Two partials for the same group combine; different groups stay apart.
	a.MergeRun(rel, 0, []uint32{7}, []int64{3})
	a.MergeRun(rel, 0, []uint32{7}, []int64{4})
	a.MergeRun(rel, 0, []uint32{9}, []int64{1})
	a.MergeRun(rel, 1, []uint32{7}, []int64{5})
	// Non-query relations are ignored.
	a.MergeRun(attr.MustParseSet("AB"), 0, []uint32{1, 2}, []int64{9})

	rows := a.Rows(rel, 0)
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Key[0] != 7 || rows[0].Aggs[0] != 7 {
		t.Errorf("group 7 row = %+v; want count 7", rows[0])
	}
	if rows[1].Key[0] != 9 || rows[1].Aggs[0] != 1 {
		t.Errorf("group 9 row = %+v", rows[1])
	}
	if got := a.GroupCount(rel, 0); got != 2 {
		t.Errorf("GroupCount = %d", got)
	}
	if es := a.Epochs(rel); len(es) != 2 || es[0] != 0 || es[1] != 1 {
		t.Errorf("Epochs = %v", es)
	}
	a.Drop(0)
	if got := a.GroupCount(rel, 0); got != 0 {
		t.Errorf("state survived Drop: %d", got)
	}
	if got := a.GroupCount(rel, 1); got != 1 {
		t.Errorf("Drop removed the wrong epoch")
	}
}

func TestMinMaxMerge(t *testing.T) {
	aggs := []lfta.AggSpec{
		{Op: hashtab.Min, Input: 1},
		{Op: hashtab.Max, Input: 1},
	}
	a, err := New(sets("A"), aggs)
	if err != nil {
		t.Fatal(err)
	}
	rel := attr.MustParseSet("A")
	a.MergeRun(rel, 0, []uint32{1}, []int64{5, 5})
	a.MergeRun(rel, 0, []uint32{1}, []int64{2, 9})
	rows := a.Rows(rel, 0)
	if rows[0].Aggs[0] != 2 || rows[0].Aggs[1] != 9 {
		t.Errorf("min/max merge = %v; want [2 9]", rows[0].Aggs)
	}
}

func TestHavingCountAtLeast(t *testing.T) {
	rows := []Row{
		{Key: []uint32{1}, Aggs: []int64{150}},
		{Key: []uint32{2}, Aggs: []int64{99}},
		{Key: []uint32{3}, Aggs: []int64{100}},
	}
	got := HavingCountAtLeast(rows, 0, 100)
	if len(got) != 2 || got[0].Key[0] != 1 || got[1].Key[0] != 3 {
		t.Errorf("HavingCountAtLeast = %+v", got)
	}
	if got := HavingCountAtLeast(rows, 5, 1); len(got) != 0 {
		t.Errorf("out-of-range agg index matched rows: %+v", got)
	}
}

// TestEndToEndExactness is the central integration test of the two-level
// architecture: for every configuration shape, with deliberately tiny
// tables, the LFTA+HFTA pipeline must produce answers identical to the
// reference aggregator computed directly over the records.
func TestEndToEndExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 200, 25)
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Uniform(rng, u, 15000, 50)
	queries := sets("AB", "BC", "BD", "CD")
	want := Reference(recs, queries, lfta.CountStar, 10)

	for _, notation := range []string{
		"AB BC BD CD",
		"ABC(AB BC) BD CD",
		"ABCD(AB BCD(BC BD CD))",
		"ABCD(AB BC BD CD)",
	} {
		cfg, err := feedgraph.ParseConfig(notation, queries)
		if err != nil {
			t.Fatal(err)
		}
		alloc := cost.Alloc{}
		for i, r := range cfg.Rels {
			alloc[r] = 5 + i*11 // tiny tables: heavy collision traffic
		}
		agg, err := New(queries, lfta.CountStar)
		if err != nil {
			t.Fatal(err)
		}
		s, err := lfta.NewSharded(cfg, alloc, lfta.CountStar, 31, agg.MergeRun, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunParallel(stream.NewSliceSource(recs), 10); err != nil {
			t.Fatal(err)
		}
		got := agg.AllRows()
		if !Equal(got, want) {
			t.Errorf("%s: pipeline answers differ from reference (%d vs %d rows)",
				notation, len(got), len(want))
		}
	}
}

// TestEndToEndExactnessClustered repeats the exactness check on a
// clustered flow trace with multi-epoch processing and sum aggregates.
func TestEndToEndExactnessClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 150, 0)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := gen.Flows(rng, u, gen.FlowConfig{NumRecords: 20000, Duration: 40, MeanFlowLen: 12, Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	queries := sets("A", "D")
	aggs := []lfta.AggSpec{
		{Op: hashtab.Sum, Input: -1},
		{Op: hashtab.Sum, Input: 2}, // sum(C): "total packet length"
	}
	want := Reference(ft.Records, queries, aggs, 5)

	cfg, err := feedgraph.ParseConfig("AD(A D)", queries)
	if err != nil {
		t.Fatal(err)
	}
	alloc := cost.Alloc{}
	for _, r := range cfg.Rels {
		alloc[r] = 17
	}
	agg, err := New(queries, aggs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lfta.NewSharded(cfg, alloc, aggs, 13, agg.MergeRun, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunParallel(stream.NewSliceSource(ft.Records), 5); err != nil {
		t.Fatal(err)
	}
	if !Equal(agg.AllRows(), want) {
		t.Error("clustered pipeline answers differ from reference")
	}
}

// Property: merging a stream of random partials is order-independent.
func TestMergeOrderIndependenceProperty(t *testing.T) {
	f := func(counts []uint8, seed int64) bool {
		if len(counts) == 0 {
			return true
		}
		rel := attr.MustParseSet("A")
		merge := func(a *Aggregator, c uint8) {
			a.MergeRun(rel, uint32(c%3), []uint32{uint32(c % 8)}, []int64{int64(c%5) + 1})
		}
		a1, _ := New([]attr.Set{rel}, lfta.CountStar)
		for _, c := range counts {
			merge(a1, c)
		}
		a2, _ := New([]attr.Set{rel}, lfta.CountStar)
		rng := rand.New(rand.NewSource(seed))
		for _, i := range rng.Perm(len(counts)) {
			merge(a2, counts[i])
		}
		return Equal(a1.AllRows(), a2.AllRows())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
