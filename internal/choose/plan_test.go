package choose

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/cost"
)

// TestPlanRoundTrip: the JSON maggopt -json prints carries the plan's
// configuration in the paper's notation, its queries, every instantiated
// relation's buckets, the space they use and the modeled cost, each field
// as the Result holds it.
func TestPlanRoundTrip(t *testing.T) {
	g, gc := pairWorkload(t)
	res, err := GCSL(g, gc, 40000, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodePlan(res)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Configuration string         `json:"configuration"`
		Queries       []string       `json:"queries"`
		Allocation    map[string]int `json:"allocation"`
		SpaceUnits    int            `json:"space_units"`
		ModeledCost   float64        `json:"modeled_cost"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("encoded plan is not the documented JSON: %v\n%s", err, data)
	}
	if got.Configuration != res.Config.String() {
		t.Errorf("configuration %q; want %q", got.Configuration, res.Config)
	}
	var queries []string
	for _, q := range res.Config.Queries {
		queries = append(queries, q.String())
	}
	if !slices.Equal(got.Queries, queries) {
		t.Errorf("queries %v; want %v", got.Queries, queries)
	}
	if len(got.Allocation) != len(res.Alloc) {
		t.Errorf("%d allocated relations; want %d", len(got.Allocation), len(res.Alloc))
	}
	for rel, b := range res.Alloc {
		if got.Allocation[rel.String()] != b {
			t.Errorf("allocation for %v: %d; want %d", rel, got.Allocation[rel.String()], b)
		}
	}
	for _, rel := range res.Config.Rels {
		if _, ok := got.Allocation[rel.String()]; !ok {
			t.Errorf("instantiated relation %v has no allocation", rel)
		}
	}
	if got.SpaceUnits != res.Alloc.SpaceUnits() {
		t.Errorf("space_units %d; want %d", got.SpaceUnits, res.Alloc.SpaceUnits())
	}
	if got.ModeledCost != res.Cost {
		t.Errorf("modeled_cost %v; want %v", got.ModeledCost, res.Cost)
	}
}

func TestEncodePlanNil(t *testing.T) {
	if _, err := EncodePlan(nil); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := EncodePlan(&Result{}); err == nil {
		t.Error("plan without config accepted")
	}
}
