package lfta

import (
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/hashtab"
	"repro/internal/stream"
)

func sets(names ...string) []attr.Set {
	out := make([]attr.Set, len(names))
	for i, n := range names {
		out[i] = attr.MustParseSet(n)
	}
	return out
}

func allocOf(m map[string]int) cost.Alloc {
	a := cost.Alloc{}
	for k, v := range m {
		a[attr.MustParseSet(k)] = v
	}
	return a
}

func TestNewValidation(t *testing.T) {
	cfg, _ := feedgraph.NewConfig(sets("A"), nil)
	if _, err := New(cfg, allocOf(map[string]int{"A": 10}), nil, 0, nil); err == nil {
		t.Error("no aggregates accepted")
	}
	if _, err := New(cfg, cost.Alloc{}, CountStar, 0, nil); err == nil {
		t.Error("missing allocation accepted")
	}
}

func TestSingleQueryCounts(t *testing.T) {
	cfg, _ := feedgraph.NewConfig(sets("A"), nil)
	var evs []Transfer
	rt, err := New(cfg, allocOf(map[string]int{"A": 1024}), CountStar, 1, Collect(&evs))
	if err != nil {
		t.Fatal(err)
	}
	// Section 2.2's stream prefix.
	for _, v := range []uint32{2, 24, 2, 2, 3, 17, 3, 4} {
		rt.Process(stream.Record{Attrs: []uint32{v}}, 0)
	}
	rt.FlushEpoch()
	total := int64(0)
	for _, e := range evs {
		total += e.Aggs[0]
		if e.Rel != attr.MustParseSet("A") || e.Epoch != 0 {
			t.Errorf("bad eviction %+v", e)
		}
	}
	if total != 8 {
		t.Errorf("evicted counts sum to %d; want 8", total)
	}
	ops := rt.Ops()
	if ops.Records != 8 || ops.Probes != 8 {
		t.Errorf("ops = %+v", ops)
	}
	// Large table, no collisions: transfers = flushed groups = 5.
	if ops.Transfers != 5 {
		t.Errorf("transfers = %d; want 5 distinct groups", ops.Transfers)
	}
}

func TestPhantomCascade(t *testing.T) {
	// ABC feeds A, B, C. Tiny phantom table forces collisions; the
	// victims must land in the query tables and then the sink, with no
	// count lost.
	cfg, _ := feedgraph.NewConfig(sets("A", "B", "C"), sets("ABC"))
	var evs []Transfer
	rt, err := New(cfg, allocOf(map[string]int{"ABC": 2, "A": 64, "B": 64, "C": 64}),
		CountStar, 7, Collect(&evs))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const n = 5000
	for i := 0; i < n; i++ {
		rt.Process(stream.Record{Attrs: []uint32{uint32(rng.Intn(20)), uint32(rng.Intn(20)), uint32(rng.Intn(20))}}, 0)
	}
	rt.FlushEpoch()
	var total int64
	for _, e := range evs {
		total += e.Aggs[0]
	}
	// Each record contributes once per query: 3 queries × n records.
	if total != 3*n {
		t.Errorf("sink saw total count %d; want %d", total, 3*n)
	}
	ops := rt.Ops()
	// Only one raw table: exactly n raw probes plus cascade probes.
	if ops.Probes < n {
		t.Errorf("probes = %d; want ≥ %d", ops.Probes, n)
	}
	if ops.Records != n {
		t.Errorf("records = %d", ops.Records)
	}
}

func TestPhantomLeafVictimsAreDropped(t *testing.T) {
	// A phantom with no children in the configuration (possible when a
	// caller builds a degenerate config directly) must not transfer to
	// the HFTA.
	cfg, _ := feedgraph.NewConfig(sets("AB"), sets("ABC"))
	// ABC feeds only AB; make AB huge and ABC tiny. ABC victims feed AB;
	// AB itself rarely collides.
	var evs []Transfer
	rt, err := New(cfg, allocOf(map[string]int{"ABC": 1, "AB": 4096}), CountStar, 5, Collect(&evs))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		rt.Process(stream.Record{Attrs: []uint32{uint32(rng.Intn(30)), uint32(rng.Intn(30)), uint32(rng.Intn(30))}}, 0)
	}
	rt.FlushEpoch()
	phantomEvs := 0
	for _, e := range evs {
		if e.Rel == attr.MustParseSet("ABC") {
			phantomEvs++
		}
	}
	if phantomEvs != 0 || len(evs) == 0 {
		t.Errorf("%d of %d transfers are phantom evictions", phantomEvs, len(evs))
	}
}

func TestEpochTagging(t *testing.T) {
	cfg, _ := feedgraph.NewConfig(sets("A"), nil)
	var evs []Transfer
	rt, err := New(cfg, allocOf(map[string]int{"A": 64}), CountStar, 9, Collect(&evs))
	if err != nil {
		t.Fatal(err)
	}
	RunRecords(rt, []stream.Record{
		{Attrs: []uint32{1}, Time: 0},
		{Attrs: []uint32{1}, Time: 5},
		{Attrs: []uint32{1}, Time: 10}, // epoch 1 begins (len 10)
		{Attrs: []uint32{2}, Time: 25}, // epoch 2
	}, 10)
	// Expect: flush of epoch 0 with (1,2); flush of epoch 1 with (1,1);
	// flush of epoch 2 with (2,1).
	if len(evs) != 3 {
		t.Fatalf("evictions = %+v", evs)
	}
	wantEpochs := []uint32{0, 1, 2}
	wantCounts := []int64{2, 1, 1}
	for i, e := range evs {
		if e.Epoch != wantEpochs[i] || e.Aggs[0] != wantCounts[i] {
			t.Errorf("eviction %d = epoch %d count %d; want epoch %d count %d",
				i, e.Epoch, e.Aggs[0], wantEpochs[i], wantCounts[i])
		}
	}
}

func TestSumMinMaxAggregates(t *testing.T) {
	cfg, _ := feedgraph.NewConfig(sets("A"), nil)
	aggs := []AggSpec{
		{Op: hashtab.Sum, Input: -1}, // count(*)
		{Op: hashtab.Sum, Input: 1},  // sum(B)
		{Op: hashtab.Min, Input: 1},  // min(B)
		{Op: hashtab.Max, Input: 1},  // max(B)
	}
	var evs []Transfer
	rt, err := New(cfg, allocOf(map[string]int{"A": 64}), aggs, 11, Collect(&evs))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []uint32{5, 9, 2} {
		rt.Process(stream.Record{Attrs: []uint32{7, b}}, 0)
	}
	rt.FlushEpoch()
	if len(evs) != 1 {
		t.Fatalf("evictions = %+v", evs)
	}
	got := evs[0].Aggs
	want := []int64{3, 16, 2, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("aggs = %v; want %v", got, want)
		}
	}
}

// TestCountConservationThroughCascade: across any configuration and any
// table sizes, the total count reaching the sink per query equals the
// number of records. This is the paper's correctness invariant: phantoms
// change cost, never results.
func TestCountConservationThroughCascade(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 300, 40)
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Uniform(rng, u, 20000, 100)
	queries := sets("AB", "BC", "BD", "CD")
	for _, notation := range []string{
		"AB BC BD CD",
		"ABC(AB BC) BD CD",
		"AB BCD(BC BD CD)",
		"ABCD(AB BCD(BC BD CD))",
		"ABCD(AB BC BD CD)",
	} {
		cfg, err := feedgraph.ParseConfig(notation, queries)
		if err != nil {
			t.Fatal(err)
		}
		alloc := cost.Alloc{}
		for i, r := range cfg.Rels {
			alloc[r] = 7 + i*13 // deliberately small and uneven
		}
		var evs []Transfer
		rt, err := New(cfg, alloc, CountStar, 17, Collect(&evs))
		if err != nil {
			t.Fatal(err)
		}
		RunRecords(rt, recs, 10)
		totals := map[attr.Set]int64{}
		for _, e := range evs {
			totals[e.Rel] += e.Aggs[0]
		}
		for _, q := range queries {
			if totals[q] != int64(len(recs)) {
				t.Errorf("%s: query %v total %d; want %d", notation, q, totals[q], len(recs))
			}
		}
	}
}

// TestPhantomReducesCost reproduces the paper's core claim on the runtime
// itself: with a sensible allocation, the phantom configuration performs
// fewer weighted operations than the no-phantom configuration at equal
// total space.
func TestPhantomReducesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	schema := stream.MustSchema(3)
	u, err := gen.UniformUniverse(rng, schema, 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Uniform(rng, u, 100000, 0)
	queries := sets("A", "B", "C")
	gA := gen.CountGroups(recs, attr.MustParseSet("A"))
	_ = gA

	const m = 3000 // deliberately tight: collisions matter

	run := func(notation string, alloc cost.Alloc) float64 {
		cfg, err := feedgraph.ParseConfig(notation, queries)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(cfg, alloc, CountStar, 23, nil)
		if err != nil {
			t.Fatal(err)
		}
		return RunRecords(rt, recs, 0).PerRecordCost(1, 50)
	}

	// No phantom: M split equally, h = 2 per entry.
	noPh := run("A B C", allocOf(map[string]int{"A": m / 6, "B": m / 6, "C": m / 6}))
	// With phantom: ABC takes more than half (per the analysis).
	withPh := run("ABC(A B C)", allocOf(map[string]int{
		"ABC": (m * 6 / 10) / 4, "A": (m * 13 / 100) / 2, "B": (m * 13 / 100) / 2, "C": (m * 13 / 100) / 2,
	}))
	if withPh >= noPh {
		t.Errorf("phantom did not help: with=%v without=%v", withPh, noPh)
	}
}

func TestTableStatsAndReset(t *testing.T) {
	cfg, _ := feedgraph.NewConfig(sets("A"), nil)
	rt, err := New(cfg, allocOf(map[string]int{"A": 8}), CountStar, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Process(stream.Record{Attrs: []uint32{1}}, 0)
	st := rt.TableStats()[attr.MustParseSet("A")]
	if st.Probes != 1 {
		t.Errorf("table probes = %d", st.Probes)
	}
	rt.ResetTableStats()
	if rt.TableStats()[attr.MustParseSet("A")].Probes != 0 {
		t.Error("ResetTableStats left counters behind")
	}
}
