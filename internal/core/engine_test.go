package core

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

var pairSQL = []string{
	"select A, B, count(*) as cnt from R group by A, B, time/10",
	"select B, C, count(*) as cnt from R group by B, C, time/10",
	"select B, D, count(*) as cnt from R group by B, D, time/10",
	"select C, D, count(*) as cnt from R group by C, D, time/10",
}

func testWorkload(t *testing.T, n int) ([]stream.Record, feedgraph.GroupCounts) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 800, 40)
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Uniform(rng, u, n, 50)
	queries := []attr.Set{
		attr.MustParseSet("AB"), attr.MustParseSet("BC"),
		attr.MustParseSet("BD"), attr.MustParseSet("CD"),
	}
	groups, err := EstimateGroups(recs, queries)
	if err != nil {
		t.Fatal(err)
	}
	return recs, groups
}

// feed admits recs, in order, through ProcessColumnBatch in batches of
// batchLen records (the last one shorter). Outcomes do not depend on where
// batches are cut, so a test that acts between records feeds one record
// per batch and any other feeds stream.ColumnBatchLen.
func feed(e *Engine, recs []stream.Record, batchLen int) error {
	var cb stream.ColumnBatch
	for len(recs) > 0 {
		n := min(batchLen, len(recs))
		cb.Reset(len(recs[0].Attrs))
		for _, r := range recs[:n] {
			cb.Append(r.Attrs, r.Time)
		}
		if err := e.ProcessColumnBatch(&cb); err != nil {
			return err
		}
		recs = recs[n:]
	}
	return nil
}

// feedAll feeds recs in stream.ColumnBatchLen batches.
func feedAll(e *Engine, recs []stream.Record) error {
	return feed(e, recs, stream.ColumnBatchLen)
}

// feedOne feeds rec as a batch of its own: an epoch it ends closes — its
// handlers run, its checkpoint is written — inside this call.
func feedOne(e *Engine, rec stream.Record) error {
	return feed(e, []stream.Record{rec}, 1)
}

func TestNewValidation(t *testing.T) {
	recs, groups := testWorkload(t, 1000)
	_ = recs
	if _, err := New(nil, groups, Options{M: 10000}); err == nil {
		t.Error("no queries accepted")
	}
	if _, err := New(pairSQL, groups, Options{M: 0}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := New(pairSQL, feedgraph.GroupCounts{}, Options{M: 10000}); err == nil {
		t.Error("missing group counts accepted")
	}
	dup := append(append([]string(nil), pairSQL...),
		"select A, B, count(*) as cnt from R group by A, B, time/10")
	if _, err := New(dup, groups, Options{M: 10000}); err == nil {
		t.Error("duplicate grouping accepted")
	}
}

func TestEngineExactness(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	queries := []attr.Set{
		attr.MustParseSet("AB"), attr.MustParseSet("BC"),
		attr.MustParseSet("BD"), attr.MustParseSet("CD"),
	}
	want := hfta.Reference(recs, queries, lfta.CountStar, 10)
	got := e.AllResults()
	if !hfta.Equal(got, want) {
		t.Fatalf("engine results differ from reference: %d vs %d rows", len(got), len(want))
	}
	st := e.Stats()
	if st.Epochs != 5 {
		t.Errorf("epochs = %d; want 5 (50s / 10s)", st.Epochs)
	}
	if st.Ops.Records != uint64(len(recs)) {
		t.Errorf("records = %d", st.Ops.Records)
	}
	if st.ModeledCost <= 0 {
		t.Errorf("modeled cost = %v", st.ModeledCost)
	}
}

func TestEnginePlansPhantoms(t *testing.T) {
	_, groups := testWorkload(t, 20000)
	e, err := New(pairSQL, groups, Options{M: 40000})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Plan().Config.Phantoms()) == 0 {
		t.Error("GCSL chose no phantoms on the pair workload")
	}
	if err := e.Plan().Config.Validate(); err != nil {
		t.Error(err)
	}
	// The graph has the Figure 4 shape.
	if len(e.Graph().Phantoms) != 4 {
		t.Errorf("graph phantoms = %v", e.Graph().Phantoms)
	}
}

func TestEngineWhereFilter(t *testing.T) {
	recs, groups := testWorkload(t, 5000)
	sqls := []string{
		"select A, count(*) as cnt from R where B >= 20 group by A, time/10",
		"select C, count(*) as cnt from R where B >= 20 group by C, time/10",
	}
	qs := []attr.Set{attr.MustParseSet("A"), attr.MustParseSet("C")}
	g2, err := EstimateGroups(recs, qs)
	if err != nil {
		t.Fatal(err)
	}
	_ = groups
	e, err := New(sqls, g2, Options{M: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	// Reference over the filtered records.
	var filtered []stream.Record
	for _, r := range recs {
		if r.Attrs[1] >= 20 {
			filtered = append(filtered, r)
		}
	}
	want := hfta.Reference(filtered, qs, lfta.CountStar, 10)
	if !hfta.Equal(e.AllResults(), want) {
		t.Error("filtered results differ from reference over filtered records")
	}
	if e.Ops().Records != uint64(len(filtered)) {
		t.Errorf("engine processed %d records; want %d after filter", e.Ops().Records, len(filtered))
	}
}

func TestEngineHaving(t *testing.T) {
	recs, _ := testWorkload(t, 20000)
	sqls := []string{
		"select A, count(*) as cnt from R group by A, time/10 having cnt > 50",
		"select B, count(*) as cnt from R group by B, time/10 having cnt > 50",
	}
	qs := []attr.Set{attr.MustParseSet("A"), attr.MustParseSet("B")}
	groups, err := EstimateGroups(recs, qs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(sqls, groups, Options{M: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	relA := attr.MustParseSet("A")
	for _, epoch := range e.Epochs(relA) {
		rows, err := e.Results(relA, epoch)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Aggs[0] <= 50 {
				t.Errorf("having let through count %d", r.Aggs[0])
			}
		}
	}
	if _, err := e.Results(attr.MustParseSet("Z"), 0); err == nil {
		t.Error("results for unregistered query accepted")
	}
}

func TestEnginePeakLoadConstraint(t *testing.T) {
	_, groups := testWorkload(t, 20000)
	// First measure the unconstrained E_u, then require 90% of it.
	free, err := New(pairSQL, groups, Options{M: 40000})
	if err != nil {
		t.Fatal(err)
	}
	eu, err := cost.EndOfEpoch(free.Plan().Config, groups, free.Plan().Alloc, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []PeakMethod{PeakShrink, PeakShift} {
		e, err := New(pairSQL, groups, Options{M: 40000, PeakEu: eu * 0.9, PeakFix: method})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		got, err := cost.EndOfEpoch(e.Plan().Config, groups, e.Plan().Alloc, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if got > eu*0.9 {
			t.Errorf("%s: E_u %v exceeds constraint %v", method, got, eu*0.9)
		}
	}
	bad, err := New(pairSQL, groups, Options{M: 40000, PeakEu: 1, PeakFix: "bogus"})
	if err == nil || bad != nil {
		t.Error("bogus peak method accepted")
	}
}

func TestEngineAdaptiveReplan(t *testing.T) {
	// Phase 1: balanced group counts across the queries. Phase 2: the
	// structure shifts — (A, B) cardinality explodes while C and D
	// collapse to a handful of values, so the balanced plan's allocation
	// and phantom choice become clearly suboptimal. The engine should
	// re-plan, and results must stay exact throughout.
	rng := rand.New(rand.NewSource(8))
	schema := stream.MustSchema(4)
	balanced, err := gen.UniformUniverse(rng, schema, 400, 30)
	if err != nil {
		t.Fatal(err)
	}
	skewTuples := make([][]uint32, 3000)
	for i := range skewTuples {
		skewTuples[i] = []uint32{rng.Uint32(), rng.Uint32(), uint32(i % 2), uint32(i % 3)}
	}
	skewed, err := gen.NewUniverse(schema, skewTuples)
	if err != nil {
		t.Fatal(err)
	}
	recs := append([]stream.Record(nil), gen.Uniform(rng, balanced, 20000, 50)...)
	for i, r := range gen.Uniform(rng, skewed, 20000, 50) {
		recs = append(recs, stream.Record{Attrs: r.Attrs, Time: 50 + uint32(i*50/20000)})
	}
	qs := []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("BC"), attr.MustParseSet("BD"), attr.MustParseSet("CD")}
	// Seed the planner with phase-1 statistics only.
	groups, err := EstimateGroups(recs[:20000], qs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(pairSQL, groups, Options{
		M:     40000,
		Seed:  5,
		Adapt: AdaptOptions{Enabled: true, EveryEpochs: 1, MinImprovement: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	want := hfta.Reference(recs, qs, lfta.CountStar, 10)
	if !hfta.Equal(e.AllResults(), want) {
		t.Fatal("adaptive engine results differ from reference")
	}
	if e.Stats().Replans == 0 {
		t.Error("distribution shift triggered no re-plan")
	}
	if e.Stats().Ops.Records != uint64(len(recs)) {
		t.Errorf("ops lost across re-plans: %d records counted of %d", e.Stats().Ops.Records, len(recs))
	}
}

func TestEstimateGroupsMonotone(t *testing.T) {
	recs, groups := testWorkload(t, 10000)
	_ = recs
	if err := groups.CheckMonotone(); err != nil {
		t.Errorf("estimated groups not monotone: %v", err)
	}
}

func TestPlannerVariants(t *testing.T) {
	_, groups := testWorkload(t, 10000)
	for name, planner := range map[string]Planner{
		"GS":        GSPlanner(1.0),
		"NoPhantom": NoPhantomPlanner,
	} {
		e, err := New(pairSQL, groups, Options{M: 40000, Planner: planner})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "NoPhantom" && len(e.Plan().Config.Phantoms()) != 0 {
			t.Errorf("NoPhantom planner chose phantoms")
		}
	}
}
