// Package cost implements the paper's cost model (Section 3.2): the
// per-record intra-epoch maintenance cost of a configuration (Equation 7)
// and the end-of-epoch update cost (Equation 8), both parameterized by the
// probe cost c1, the eviction cost c2 (c2/c1 ≈ 50 in Gigascope), a
// collision-rate estimator, and optional per-relation flow lengths for
// clustered streams.
package cost

import (
	"fmt"
	"math"

	"repro/internal/attr"
	"repro/internal/collision"
	"repro/internal/feedgraph"
)

// Params are the cost-model constants and estimators.
type Params struct {
	C1 float64 // cost of one hash-table probe/update in the LFTA
	C2 float64 // cost of one eviction to the HFTA (c2 >> c1)

	// Rate estimates the collision rate of a table with g groups and b
	// buckets under random (non-clustered) arrivals. Nil means the fitted
	// precise-model curve (collision.Rate).
	Rate func(g, b float64) float64

	// FlowLen returns the average flow length l_a observed by relation R
	// (Section 4.3); the random-arrival rate divides by it. It is applied
	// to raw relations only — clusteredness is a property of the arrival
	// stream, and the eviction streams feeding lower tables are
	// de-clustered. Nil means 1 everywhere (random data).
	FlowLen func(rel attr.Set) float64
}

// DefaultParams returns the paper's experimental setting: c1 = 1,
// c2 = 50, precise-model rate curve, random data.
func DefaultParams() Params {
	return Params{C1: 1, C2: 50}
}

func (p Params) rate(g, b float64) float64 {
	if p.Rate != nil {
		return p.Rate(g, b)
	}
	return collision.Rate(g, b)
}

func (p Params) flowLen(rel attr.Set) float64 {
	if p.FlowLen == nil {
		return 1
	}
	if l := p.FlowLen(rel); l > 1 {
		return l
	}
	return 1
}

// Validate rejects unusable parameters.
func (p Params) Validate() error {
	if p.C1 <= 0 || p.C2 <= 0 {
		return fmt.Errorf("cost: c1 and c2 must be positive (got %v, %v)", p.C1, p.C2)
	}
	if p.C2 < p.C1 {
		return fmt.Errorf("cost: c2 (%v) should not be below c1 (%v)", p.C2, p.C1)
	}
	return nil
}

// Alloc assigns a bucket count b_R to every instantiated relation.
type Alloc map[attr.Set]int

// Buckets returns b_R or an error if the relation has no allocation.
func (a Alloc) Buckets(r attr.Set) (int, error) {
	b, ok := a[r]
	if !ok {
		return 0, fmt.Errorf("cost: no allocation for %v", r)
	}
	if b <= 0 {
		return 0, fmt.Errorf("cost: allocation for %v is %d buckets", r, b)
	}
	return b, nil
}

// SpaceUnits returns the total space the allocation occupies, in the
// paper's 4-byte units: Σ b_R · h_R.
func (a Alloc) SpaceUnits() int {
	total := 0
	for r, b := range a {
		total += b * feedgraph.EntrySize(r)
	}
	return total
}

// Clone returns a copy of the allocation.
func (a Alloc) Clone() Alloc {
	out := make(Alloc, len(a))
	for r, b := range a {
		out[r] = b
	}
	return out
}

// Rates computes the modeled collision rate x_R of every relation in the
// configuration under the allocation: the random-data rate at (g_R, b_R),
// divided by the flow length for raw relations (Equation 15).
func Rates(cfg *feedgraph.Config, groups feedgraph.GroupCounts, alloc Alloc, p Params) (map[attr.Set]float64, error) {
	out := make(map[attr.Set]float64, len(cfg.Rels))
	for _, r := range cfg.Rels {
		g, err := groups.Get(r)
		if err != nil {
			return nil, err
		}
		b, err := alloc.Buckets(r)
		if err != nil {
			return nil, err
		}
		x := p.rate(g, float64(b))
		if cfg.IsRaw(r) {
			x = collision.Clustered(x, p.flowLen(r))
		}
		out[r] = x
	}
	return out, nil
}

// PerRecord evaluates Equation 7, the per-record intra-epoch cost:
//
//	e_m = Σ_{R∈I} (Π_{R'∈A_R} x_{R'}) c1 + Σ_{R∈L} (Π_{R'∈A_R} x_{R'}) x_R c2
//
// Raw relations have an empty ancestor product (= 1): every arriving
// record probes each raw table; a table below is probed once per collision
// in its parent; and a collision in a leaf evicts to the HFTA.
//
// One generalization over the paper's formula: the c2 term is charged for
// *query* relations rather than leaves. In every paper configuration the
// two coincide (leaves are always queries), but a query may also be
// interior (e.g. query AB feeding query A), in which case its collision
// victims both probe its children and transfer to the HFTA; conversely a
// childless phantom's victims are simply dropped, costing nothing.
func PerRecord(cfg *feedgraph.Config, groups feedgraph.GroupCounts, alloc Alloc, p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	rates, err := Rates(cfg, groups, alloc, p)
	if err != nil {
		return 0, err
	}
	e := 0.0
	for _, r := range cfg.Rels {
		feed := 1.0 // Π over ancestors of the collision rates
		for _, a := range cfg.Ancestors(r) {
			feed *= rates[a]
		}
		e += feed * p.C1
		if cfg.IsQuery(r) {
			e += feed * rates[r] * p.C2
		}
	}
	return e, nil
}

// Occupancy returns the expected number of occupied buckets of a table
// with g groups and b buckets after an epoch long enough for every group
// to appear: b·(1 - (1-1/b)^g), ≈ g when g ≪ b and ≈ b when g ≫ b.
func Occupancy(g, b float64) float64 {
	if g <= 0 || b <= 0 {
		return 0
	}
	return b * (1 - math.Exp(g*math.Log1p(-1/b)))
}

// EndOfEpoch evaluates Equation 8, the end-of-epoch update cost E_u: the
// hash tables are scanned top-down; every entry of every table propagates
// into the tables below it (c1 per arrival into a non-raw table), items
// pass through an intermediate table toward a lower one only via a
// collision there, and every item reaching a leaf is eventually evicted to
// the HFTA (c2 each), together with the leaf's own resident entries.
//
// The extracted formula in the paper is garbled; this reconstruction
// (documented in DESIGN.md §6) uses
//
//	U_R   = Σ_{R'∈A_R} occ(R') · Π_{R'' strictly between R' and R} x_{R''}
//	E_u   = Σ_{R∉W} U_R·c1 + Σ_{R∈L} (occ(R) + U_R)·c2
//
// with occ(R) the expected occupied entries of R's table (the paper's M_R,
// refined so nearly-empty tables do not overcharge).
func EndOfEpoch(cfg *feedgraph.Config, groups feedgraph.GroupCounts, alloc Alloc, p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	rates, err := Rates(cfg, groups, alloc, p)
	if err != nil {
		return 0, err
	}
	occ := make(map[attr.Set]float64, len(cfg.Rels))
	for _, r := range cfg.Rels {
		g, _ := groups.Get(r)
		b, _ := alloc.Buckets(r)
		occ[r] = Occupancy(g, float64(b))
	}

	total := 0.0
	for _, r := range cfg.Rels {
		anc := cfg.Ancestors(r) // direct parent first, raw last
		u := 0.0
		pass := 1.0
		for _, a := range anc {
			u += occ[a] * pass
			pass *= rates[a] // items passing *through* a toward r collide there
		}
		if !cfg.IsRaw(r) {
			total += u * p.C1
		}
		if cfg.IsQuery(r) {
			total += (occ[r] + u) * p.C2
		}
	}
	return total, nil
}
