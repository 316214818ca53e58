package gen

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/stream"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestUniformUniverse(t *testing.T) {
	schema := stream.MustSchema(3)
	u, err := UniformUniverse(rng(1), schema, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u.Size() != 500 {
		t.Fatalf("Size = %d", u.Size())
	}
	if g := u.GroupCount(schema.Universe()); g != 500 {
		t.Errorf("full-width GroupCount = %d; want 500", g)
	}
	// Projections can only shrink the group count.
	if g := u.GroupCount(attr.MustParseSet("A")); g > 500 || g <= 0 {
		t.Errorf("GroupCount(A) = %d", g)
	}
	if _, err := UniformUniverse(rng(1), schema, 0, 0); err == nil {
		t.Error("g = 0 accepted")
	}
	if _, err := UniformUniverse(rng(1), stream.MustSchema(1), 10, 3); err == nil {
		t.Error("impossible pool accepted")
	}
}

func TestGroupCountMonotone(t *testing.T) {
	schema := stream.MustSchema(4)
	u, err := UniformUniverse(rng(2), schema, 1000, 50)
	if err != nil {
		t.Fatal(err)
	}
	// g is monotone under subset: R ⊆ S implies g_R ≤ g_S.
	rels := []string{"A", "AB", "ABC", "ABCD", "B", "BD", "ABD"}
	for _, rs := range rels {
		for _, ss := range rels {
			r, s := attr.MustParseSet(rs), attr.MustParseSet(ss)
			if r.SubsetOf(s) && u.GroupCount(r) > u.GroupCount(s) {
				t.Errorf("g(%v) = %d > g(%v) = %d violates monotonicity",
					r, u.GroupCount(r), s, u.GroupCount(s))
			}
		}
	}
}

func TestNestedUniverseHitsPrefixCards(t *testing.T) {
	schema := stream.MustSchema(4)
	cards := []int{552, 1846, 2117, 2837}
	u, err := NestedUniverse(rng(3), schema, cards, 1500)
	if err != nil {
		t.Fatal(err)
	}
	prefixes := []string{"A", "AB", "ABC", "ABCD"}
	for i, p := range prefixes {
		if g := u.GroupCount(attr.MustParseSet(p)); g != cards[i] {
			t.Errorf("g(%s) = %d; want %d", p, g, cards[i])
		}
	}
}

func TestNestedUniverseValidation(t *testing.T) {
	schema := stream.MustSchema(2)
	if _, err := NestedUniverse(rng(1), schema, []int{5}, 0); err == nil {
		t.Error("wrong cardinality count accepted")
	}
	if _, err := NestedUniverse(rng(1), schema, []int{5, 3}, 0); err == nil {
		t.Error("decreasing cardinalities accepted")
	}
	if _, err := NestedUniverse(rng(1), schema, []int{0, 3}, 0); err == nil {
		t.Error("zero cardinality accepted")
	}
}

func TestUniformRecords(t *testing.T) {
	schema := stream.MustSchema(2)
	u, _ := UniformUniverse(rng(4), schema, 100, 0)
	recs := Uniform(rng(5), u, 10000, 60)
	if len(recs) != 10000 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Time != 0 || recs[len(recs)-1].Time != 59 {
		t.Errorf("timestamps span [%d, %d]; want [0, 59]", recs[0].Time, recs[len(recs)-1].Time)
	}
	if g := CountGroups(recs, schema.Universe()); g > 100 {
		t.Errorf("records use %d groups; universe has 100", g)
	}
	// With 10000 draws from 100 groups, all groups should appear.
	if g := CountGroups(recs, schema.Universe()); g != 100 {
		t.Errorf("only %d of 100 groups appeared in 10000 uniform draws", g)
	}
}

func TestZipfSkew(t *testing.T) {
	schema := stream.MustSchema(1)
	u, _ := UniformUniverse(rng(6), schema, 1000, 0)
	recs, err := Zipf(rng(7), u, 50000, 0, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint32]int{}
	top := 0
	for _, r := range recs {
		counts[r.Attrs[0]]++
		top = max(top, counts[r.Attrs[0]])
	}
	// Heavy skew: the top group should carry far more than the uniform
	// share (50 records/group).
	if top < 500 {
		t.Errorf("top group has %d records; expected heavy skew", top)
	}
	if _, err := Zipf(rng(7), u, 10, 0, 0.5); err == nil {
		t.Error("invalid zipf exponent accepted")
	}
}

func TestFlowsClusteredness(t *testing.T) {
	schema := stream.MustSchema(4)
	u, _ := UniformUniverse(rng(8), schema, 500, 0)
	cfg := FlowConfig{NumRecords: 30000, Duration: 60, MeanFlowLen: 20, Concurrency: 8}
	ft, err := Flows(rng(9), u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Records) != cfg.NumRecords {
		t.Fatalf("got %d records", len(ft.Records))
	}
	la := ft.AvgFlowLength()
	if la < 10 || la > 40 {
		t.Errorf("average flow length %v far from configured mean 20", la)
	}
	// Clusteredness: consecutive records repeat the same group far more
	// often than independent draws from 500 groups would (~0.2%).
	same := 0
	for i := 1; i < len(ft.Records); i++ {
		equal := true
		for j := range ft.Records[i].Attrs {
			if ft.Records[i].Attrs[j] != ft.Records[i-1].Attrs[j] {
				equal = false
				break
			}
		}
		if equal {
			same++
		}
	}
	frac := float64(same) / float64(len(ft.Records)-1)
	if frac < 0.05 {
		t.Errorf("adjacent-same-group fraction %v; trace not clustered", frac)
	}

	// OnePerFlow de-clusters: one record per flow.
	flat := ft.OnePerFlow()
	if len(flat) != len(ft.Flows) {
		t.Errorf("OnePerFlow emitted %d records for %d flows", len(flat), len(ft.Flows))
	}
}

func TestFlowsValidation(t *testing.T) {
	schema := stream.MustSchema(1)
	u, _ := UniformUniverse(rng(10), schema, 10, 0)
	if _, err := Flows(rng(1), u, FlowConfig{NumRecords: 0, MeanFlowLen: 5}); err == nil {
		t.Error("zero records accepted")
	}
	if _, err := Flows(rng(1), u, FlowConfig{NumRecords: 10, MeanFlowLen: 0.5}); err == nil {
		t.Error("sub-1 mean flow length accepted")
	}
}

func TestPaperTraceStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("paper trace generation is slow in -short mode")
	}
	u, ft, err := PaperTrace(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Records) != 860000 {
		t.Fatalf("paper trace has %d records; want 860000", len(ft.Records))
	}
	for i, p := range []string{"A", "AB", "ABC", "ABCD"} {
		if g := u.GroupCount(attr.MustParseSet(p)); g != PaperUniverseCards[i] {
			t.Errorf("g(%s) = %d; want %d", p, g, PaperUniverseCards[i])
		}
	}
	// All groups the records use must come from the universe.
	if g := CountGroups(ft.Records, attr.MustParseSet("ABCD")); g > u.Size() {
		t.Errorf("trace uses %d groups; universe has %d", g, u.Size())
	}
	// Duration 62 seconds.
	last := ft.Records[len(ft.Records)-1].Time
	if last != 61 {
		t.Errorf("last timestamp %d; want 61", last)
	}
	// Strong clusteredness.
	if la := ft.AvgFlowLength(); la < 5 {
		t.Errorf("average flow length %v; want clustered trace", la)
	}
}

func TestDeterminism(t *testing.T) {
	schema := stream.MustSchema(3)
	u1, _ := UniformUniverse(rng(99), schema, 200, 100)
	u2, _ := UniformUniverse(rng(99), schema, 200, 100)
	for i := range u1.Tuples {
		for j := range u1.Tuples[i] {
			if u1.Tuples[i][j] != u2.Tuples[i][j] {
				t.Fatal("same seed produced different universes")
			}
		}
	}
	r1 := Uniform(rng(7), u1, 100, 10)
	r2 := Uniform(rng(7), u2, 100, 10)
	for i := range r1 {
		if r1[i].Time != r2[i].Time || r1[i].Attrs[0] != r2[i].Attrs[0] {
			t.Fatal("same seed produced different record streams")
		}
	}
}

func TestGeometricFlowLengthMean(t *testing.T) {
	// The realized mean flow length should be near the configured mean.
	schema := stream.MustSchema(1)
	u, _ := UniformUniverse(rng(13), schema, 50, 0)
	for _, mean := range []float64{1, 5, 30} {
		ft, err := Flows(rng(14), u, FlowConfig{NumRecords: 50000, MeanFlowLen: mean, Concurrency: 4})
		if err != nil {
			t.Fatal(err)
		}
		la := ft.AvgFlowLength()
		if math.Abs(la-mean) > mean*0.3+1 {
			t.Errorf("mean %v: realized flow length %v", mean, la)
		}
	}
}
