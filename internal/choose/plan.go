package choose

import (
	"encoding/json"
	"fmt"
)

// Plan serialization: a chosen configuration and allocation as a stable
// JSON document, so a plan computed offline (cmd/maggopt -json) can be
// audited and compared between runs.

// planJSON is the wire form of a Result.
type planJSON struct {
	Configuration string         `json:"configuration"` // paper notation
	Queries       []string       `json:"queries"`
	Allocation    map[string]int `json:"allocation"` // relation -> buckets
	SpaceUnits    int            `json:"space_units"`
	ModeledCost   float64        `json:"modeled_cost"`
}

// EncodePlan renders a plan as JSON.
func EncodePlan(r *Result) ([]byte, error) {
	if r == nil || r.Config == nil {
		return nil, fmt.Errorf("choose: nil plan")
	}
	pj := planJSON{
		Configuration: r.Config.String(),
		Allocation:    make(map[string]int, len(r.Alloc)),
		SpaceUnits:    r.Alloc.SpaceUnits(),
		ModeledCost:   r.Cost,
	}
	for _, q := range r.Config.Queries {
		pj.Queries = append(pj.Queries, q.String())
	}
	for rel, b := range r.Alloc {
		pj.Allocation[rel.String()] = b
	}
	return json.MarshalIndent(pj, "", "  ")
}
