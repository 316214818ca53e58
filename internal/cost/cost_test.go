package cost

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/attr"
	"repro/internal/feedgraph"
)

func sets(names ...string) []attr.Set {
	out := make([]attr.Set, len(names))
	for i, n := range names {
		out[i] = attr.MustParseSet(n)
	}
	return out
}

func groupsOf(m map[string]float64) feedgraph.GroupCounts {
	gc := feedgraph.GroupCounts{}
	for k, v := range m {
		gc[attr.MustParseSet(k)] = v
	}
	return gc
}

func allocOf(m map[string]int) Alloc {
	a := Alloc{}
	for k, v := range m {
		a[attr.MustParseSet(k)] = v
	}
	return a
}

// fixedRate returns a Params whose collision model is a lookup table of
// rates per g value, so tests control x_R exactly.
func fixedRateParams(c1, c2 float64, rateByG map[float64]float64) Params {
	return Params{C1: c1, C2: c2, Rate: func(g, b float64) float64 {
		x, ok := rateByG[g]
		if !ok {
			panic("unexpected g in test rate function")
		}
		return x
	}}
}

// TestSection25Example reproduces the motivating cost comparison of
// Section 2.5: queries A, B, C with and without phantom ABC.
//
//	E1/n = 3·c1 + 3·x1'·c2          (no phantom, Equation 1)
//	E2/n = c1 + 3·x2·c1 + 3·x1·x2·c2 (with phantom, Equation 2)
func TestSection25Example(t *testing.T) {
	const (
		c1, c2 = 1.0, 50.0
		x1p    = 0.10 // collision rate of A, B, C without the phantom
		x1     = 0.15 // with the phantom (smaller tables → higher rate)
		x2     = 0.05 // rate of the phantom ABC
	)
	queries := sets("A", "B", "C")
	groups := groupsOf(map[string]float64{"A": 100, "B": 200, "C": 300, "ABC": 1000})

	// Without phantom: distinguish the two x1 values via table size, so
	// encode rates keyed by g and give A, B, C the "without" rate first.
	noPhantom, err := feedgraph.NewConfig(queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := fixedRateParams(c1, c2, map[float64]float64{100: x1p, 200: x1p, 300: x1p, 1000: x2})
	alloc := allocOf(map[string]int{"A": 10, "B": 10, "C": 10, "ABC": 10})
	e1, err := PerRecord(noPhantom, groups, alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	wantE1 := 3*c1 + 3*x1p*c2
	if math.Abs(e1-wantE1) > 1e-12 {
		t.Errorf("E1 = %v; want %v", e1, wantE1)
	}

	withPhantom, err := feedgraph.NewConfig(queries, sets("ABC"))
	if err != nil {
		t.Fatal(err)
	}
	p2 := fixedRateParams(c1, c2, map[float64]float64{100: x1, 200: x1, 300: x1, 1000: x2})
	e2, err := PerRecord(withPhantom, groups, alloc, p2)
	if err != nil {
		t.Fatal(err)
	}
	wantE2 := c1 + 3*x2*c1 + 3*x1*x2*c2
	if math.Abs(e2-wantE2) > 1e-12 {
		t.Errorf("E2 = %v; want %v", e2, wantE2)
	}
	// With these rates the phantom is beneficial (Equation 3 positive).
	if e2 >= e1 {
		t.Errorf("phantom not beneficial: E1=%v E2=%v", e1, e2)
	}
}

// TestThreeLevelFeedProducts checks the ancestor products of Equation 7 on
// the three-level configuration ABCD(AB BCD(BC BD CD)).
func TestThreeLevelFeedProducts(t *testing.T) {
	queries := sets("AB", "BC", "BD", "CD")
	cfg, err := feedgraph.NewConfig(queries, sets("ABCD", "BCD"))
	if err != nil {
		t.Fatal(err)
	}
	groups := groupsOf(map[string]float64{
		"AB": 10, "BC": 20, "BD": 30, "CD": 40, "BCD": 50, "ABCD": 60,
	})
	const (
		xTop = 0.2  // ABCD
		xMid = 0.1  // BCD
		xLf  = 0.05 // all leaves
	)
	p := fixedRateParams(1, 50, map[float64]float64{
		10: xLf, 20: xLf, 30: xLf, 40: xLf, 50: xMid, 60: xTop,
	})
	alloc := allocOf(map[string]int{"AB": 1, "BC": 1, "BD": 1, "CD": 1, "BCD": 1, "ABCD": 1})
	got, err := PerRecord(cfg, groups, alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	// Probes: ABCD 1; AB, BCD at xTop each; BC, BD, CD at xTop·xMid each.
	probe := 1 + 2*xTop + 3*xTop*xMid
	// Evictions: leaf AB at xTop·xLf; leaves BC, BD, CD at xTop·xMid·xLf.
	evict := (xTop*xLf + 3*xTop*xMid*xLf) * 50
	want := probe + evict
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("PerRecord = %v; want %v", got, want)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{C1: 0, C2: 50}).Validate(); err == nil {
		t.Error("c1=0 accepted")
	}
	if err := (Params{C1: 2, C2: 1}).Validate(); err == nil {
		t.Error("c2 < c1 accepted")
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Error(err)
	}
}

func TestAllocHelpers(t *testing.T) {
	a := allocOf(map[string]int{"A": 100, "ABCD": 10})
	// Space: A has h=2, ABCD h=5 → 100·2 + 10·5 = 250.
	if got := a.SpaceUnits(); got != 250 {
		t.Errorf("SpaceUnits = %d; want 250", got)
	}
	if _, err := a.Buckets(attr.MustParseSet("Z")); err == nil {
		t.Error("missing relation accepted")
	}
	a[attr.MustParseSet("B")] = 0
	if _, err := a.Buckets(attr.MustParseSet("B")); err == nil {
		t.Error("zero buckets accepted")
	}
	c := a.Clone()
	c[attr.MustParseSet("A")] = 7
	if a[attr.MustParseSet("A")] != 100 {
		t.Error("Clone aliased the original")
	}
}

func TestPerRecordMissingInputs(t *testing.T) {
	cfg, _ := feedgraph.NewConfig(sets("A"), nil)
	p := DefaultParams()
	if _, err := PerRecord(cfg, feedgraph.GroupCounts{}, allocOf(map[string]int{"A": 1}), p); err == nil {
		t.Error("missing group count accepted")
	}
	if _, err := PerRecord(cfg, groupsOf(map[string]float64{"A": 10}), Alloc{}, p); err == nil {
		t.Error("missing allocation accepted")
	}
}

func TestFlowLengthReducesCost(t *testing.T) {
	cfg, _ := feedgraph.NewConfig(sets("A", "B"), nil)
	groups := groupsOf(map[string]float64{"A": 1000, "B": 1000})
	alloc := allocOf(map[string]int{"A": 500, "B": 500})
	p := DefaultParams()
	base, err := PerRecord(cfg, groups, alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	p.FlowLen = func(attr.Set) float64 { return 20 }
	clustered, err := PerRecord(cfg, groups, alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	if clustered >= base {
		t.Errorf("clustered cost %v not below random cost %v", clustered, base)
	}
	// Probe cost floor: 2·c1 regardless of collisions.
	if clustered < 2 {
		t.Errorf("cost %v below the probe floor", clustered)
	}
}

func TestOccupancy(t *testing.T) {
	if got := Occupancy(10, 1e9); math.Abs(got-10) > 0.01 {
		t.Errorf("g≪b occupancy = %v; want ≈ g", got)
	}
	if got := Occupancy(1e9, 1000); math.Abs(got-1000) > 0.01 {
		t.Errorf("g≫b occupancy = %v; want ≈ b", got)
	}
	if Occupancy(0, 10) != 0 || Occupancy(10, 0) != 0 {
		t.Error("degenerate occupancy not 0")
	}
}

// TestEndOfEpochTwoLevel hand-computes E_u for AB(A B).
func TestEndOfEpochTwoLevel(t *testing.T) {
	cfg, _ := feedgraph.NewConfig(sets("A", "B"), sets("AB"))
	groups := groupsOf(map[string]float64{"A": 1e9, "B": 1e9, "AB": 1e9})
	// Huge g ⇒ occupancy = b for every table.
	alloc := allocOf(map[string]int{"A": 100, "B": 200, "AB": 400})
	const xA, xB, xAB = 0.05, 0.10, 0.3
	p := Params{C1: 1, C2: 50, Rate: func(g, b float64) float64 {
		switch b {
		case 100:
			return xA
		case 200:
			return xB
		default:
			return xAB
		}
	}}
	got, err := EndOfEpoch(cfg, groups, alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	// Flush: AB's 400 entries probe A and B (U_A = U_B = 400): 800·c1.
	// Leaves evict occupancy + everything fed: (100+400)·c2 + (200+400)·c2.
	want := 800*1.0 + (100+400)*50.0 + (200+400)*50.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("EndOfEpoch = %v; want %v", got, want)
	}
}

// TestEndOfEpochThreeLevelPassThrough: items from the raw table reach the
// bottom only via collisions in the middle table.
func TestEndOfEpochThreeLevel(t *testing.T) {
	cfg, _ := feedgraph.NewConfig(sets("A", "AB"), sets("ABC"))
	// Chain: ABC feeds AB feeds A.
	groups := groupsOf(map[string]float64{"A": 1e9, "AB": 1e9, "ABC": 1e9})
	alloc := allocOf(map[string]int{"A": 10, "AB": 20, "ABC": 40})
	const xAB = 0.25
	p := Params{C1: 1, C2: 50, Rate: func(g, b float64) float64 {
		if b == 20 {
			return xAB
		}
		return 0.5
	}}
	got, err := EndOfEpoch(cfg, groups, alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	// U_AB = occ(ABC) = 40 → 40·c1.
	// U_A  = occ(AB) + occ(ABC)·x_AB = 20 + 40·0.25 = 30 → 30·c1.
	// Leaf query A evicts occ(A) + U_A = 10 + 30 = 40 → 40·c2.
	// Interior query AB also evicts occ(AB) + U_AB = 60 → 60·c2.
	want := 40*1.0 + 30*1.0 + 40*50.0 + 60*50.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("EndOfEpoch = %v; want %v", got, want)
	}
}

// Property: adding buckets to any single table never increases the
// per-record cost (the rate curve is monotone in b).
func TestMoreSpaceNeverHurtsProperty(t *testing.T) {
	queries := sets("AB", "BC")
	cfg, err := feedgraph.NewConfig(queries, sets("ABC"))
	if err != nil {
		t.Fatal(err)
	}
	groups := groupsOf(map[string]float64{"AB": 800, "BC": 700, "ABC": 2000})
	p := DefaultParams()
	f := func(bA, bB, bP uint16, which uint8) bool {
		alloc := allocOf(map[string]int{
			"AB":  int(bA%2000) + 10,
			"BC":  int(bB%2000) + 10,
			"ABC": int(bP%2000) + 10,
		})
		before, err := PerRecord(cfg, groups, alloc, p)
		if err != nil {
			return false
		}
		bigger := alloc.Clone()
		rels := cfg.Rels
		r := rels[int(which)%len(rels)]
		bigger[r] += 500
		after, err := PerRecord(cfg, groups, bigger, p)
		if err != nil {
			return false
		}
		return after <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
