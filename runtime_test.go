package magg

import (
	"testing"
)

func TestFacadeLFTAPipeline(t *testing.T) {
	recs, queries, groups := facadeWorkload(t)
	plan, err := Plan(queries, groups, 20000, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(queries, CountStar)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewLFTA(plan.Config, plan.Alloc, CountStar, 3, agg.Sink())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(NewSliceSource(recs), 10); err != nil {
		t.Fatal(err)
	}
	want := Reference(recs, queries, CountStar, 10)
	if !RowsEqual(agg.AllRows(), want) {
		t.Error("facade pipeline differs from reference")
	}
}

func TestFacadeShardedParallel(t *testing.T) {
	recs, queries, groups := facadeWorkload(t)
	plan, err := Plan(queries, groups, 20000, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(queries, CountStar)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedLFTA(plan.Config, plan.Alloc, CountStar, 3, agg.Sink(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := s.RunParallel(NewSliceSource(recs), 10)
	if err != nil {
		t.Fatal(err)
	}
	if ops.Records != uint64(len(recs)) {
		t.Errorf("records = %d", ops.Records)
	}
	if !RowsEqual(agg.AllRows(), Reference(recs, queries, CountStar, 10)) {
		t.Error("sharded facade pipeline differs from reference")
	}
}
