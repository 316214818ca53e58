package collision

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/attr"
	"repro/internal/hashtab"
)

func TestRough(t *testing.T) {
	if got := Rough(1000, 1000); got != 0 {
		t.Errorf("Rough(g=b) = %v; want 0", got)
	}
	if got := Rough(2000, 1000); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Rough(2000,1000) = %v; want 0.5", got)
	}
	if got := Rough(500, 1000); got != 0 {
		t.Errorf("Rough(g<b) = %v; want 0", got)
	}
	if got := Rough(0, 1000); got != 0 {
		t.Errorf("Rough(0, b) = %v", got)
	}
}

// TestPreciseMatchesClosed: the truncated binomial sum (paper's
// computation) must agree with the exact closed form.
func TestPreciseMatchesClosed(t *testing.T) {
	for _, gb := range [][2]float64{
		{100, 1000}, {500, 1000}, {1000, 1000}, {3000, 1000},
		{10000, 1000}, {552, 2000}, {2837, 300}, {50, 7}, {7, 7},
	} {
		g, b := gb[0], gb[1]
		p, c := Precise(g, b), Closed(g, b)
		if c == 0 {
			if p > 1e-9 {
				t.Errorf("g=%v b=%v: Precise=%v, Closed=0", g, b, p)
			}
			continue
		}
		// The paper's μ+5σ truncation leaves up to ~2% relative error
		// when μ = g/b is tiny (few terms summed); elsewhere agreement is
		// essentially exact.
		if rel := math.Abs(p-c) / c; rel > 0.02 {
			t.Errorf("g=%v b=%v: Precise=%v vs Closed=%v (rel err %v)", g, b, p, c, rel)
		}
	}
}

func TestPreciseKnownValues(t *testing.T) {
	// g/b = 1 with large b: x → 1 - (1 - e^{-1}) = e^{-1} ≈ 0.3679. The
	// paper uses this when suggesting φ = 1 "corresponds to a collision
	// rate of about 0.37".
	if got := Precise(100000, 100000); math.Abs(got-1/math.E) > 0.005 {
		t.Errorf("Precise(g=b, large) = %v; want ≈ %v", got, 1/math.E)
	}
	// Degenerate single bucket.
	if got := Precise(4, 1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Precise(4,1) = %v; want 0.75", got)
	}
	// No groups / no buckets.
	if Precise(0, 10) != 0 || Precise(10, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

// TestRoughVsPreciseShape reproduces the qualitative claim of Figure 5:
// the rough model is far below the precise model at small g/b and
// converges to it as g/b grows.
func TestRoughVsPreciseShape(t *testing.T) {
	b := 1000.0
	smallGap := Precise(500, b) - Rough(500, b) // g/b = 0.5
	if smallGap < 0.1 {
		t.Errorf("at g/b=0.5 precise-rough gap = %v; want large", smallGap)
	}
	largeRel := (Precise(9000, b) - Rough(9000, b)) / Precise(9000, b)
	if largeRel > 0.05 {
		t.Errorf("at g/b=9 precise vs rough relative gap = %v; want small", largeRel)
	}
}

// TestPreciseMonotone: x is increasing in g and decreasing in b.
func TestPreciseMonotoneProperty(t *testing.T) {
	f := func(gRaw, bRaw uint16) bool {
		g := float64(gRaw%5000) + 10
		b := float64(bRaw%3000) + 10
		x := Precise(g, b)
		if x < 0 || x > 1 {
			return false
		}
		if Precise(g*1.5, b) < x-1e-9 {
			return false
		}
		if Precise(g, b*1.5) > x+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPreciseSaturatedSweep walks μ = g/b across the edge where the
// binomial pmf(0) leaves the normal float range (μ ≈ 708), for the
// single-slot model at b ∈ {10, 1000} and the grouped one at s = 16. The
// rate must keep rising with μ and track the closed form: within the
// μ+5σ truncation (under 1e-6) while the sum runs, and to 1e-9 past the
// edge, where a subnormal pmf(0) used to collapse the sum to 0.
func TestPreciseSaturatedSweep(t *testing.T) {
	type model struct {
		name           string
		bins           float64 // b, or the group count ⌈b/s⌉
		precise, exact func(mu float64) float64
	}
	var models []model
	for _, b := range []float64{10, 1000} {
		models = append(models, model{"s=1", b,
			func(mu float64) float64 { return Precise(mu*b, b) },
			func(mu float64) float64 { return Closed(mu*b, b) }})
	}
	const b, s = 1024, 16
	models = append(models, model{"s=16", b / s,
		func(mu float64) float64 { return PreciseSlots(mu*b/s, b, s) },
		func(mu float64) float64 { return ClosedSlots(mu*b/s, b, s) }})
	for _, m := range models {
		prev := 0.0
		for mu := 650.0; mu <= 800; mu += 0.25 {
			p, c := m.precise(mu), m.exact(mu)
			tol := 1e-6
			if mu*m.bins*math.Log1p(-1/m.bins) < logMinNormal {
				tol = 1e-9
			}
			if math.Abs(p-c) > tol {
				t.Fatalf("%s, %v bins, μ=%v: Precise %v, Closed %v", m.name, m.bins, mu, p, c)
			}
			if p < prev {
				t.Fatalf("%s, %v bins, μ=%v: rate fell from %v to %v", m.name, m.bins, mu, prev, p)
			}
			prev = p
		}
	}
	if got, want := Precise(8000, 10), Closed(8000, 10); got != want {
		t.Errorf("Precise(8000, 10) = %v; want Closed's %v", got, want)
	}
}

// TestTable1 reproduces Table 1: for fixed g/b, the rate varies by well
// under a few percent as b sweeps 300..3000.
func TestTable1RateDependsOnlyOnRatio(t *testing.T) {
	for _, r := range []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32} {
		lo, hi := math.Inf(1), math.Inf(-1)
		for b := 300.0; b <= 3000; b += 300 {
			x := Precise(r*b, b)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		variation := (hi - lo) / hi
		if variation > 0.02 {
			t.Errorf("g/b=%v: variation %.4f exceeds 2%%", r, variation)
		}
	}
}

// TestFig6Shape reproduces Figure 6: per-k contributions at g=3000,
// b=1000 peak around k=4 at ≈ 0.16 and vanish past k ≈ 12.
func TestFig6Shape(t *testing.T) {
	g, b := 3000.0, 1000.0
	peakK, peakV := 0, 0.0
	for k := 2; k <= 20; k++ {
		v := ProbOfK(g, b, k)
		if v > peakV {
			peakK, peakV = k, v
		}
	}
	if peakK != 4 {
		t.Errorf("peak at k=%d; paper observes k=4", peakK)
	}
	if math.Abs(peakV-0.168) > 0.02 {
		t.Errorf("peak value %v; want ≈ 0.168", peakV)
	}
	if ProbOfK(g, b, 13) > 0.001 {
		t.Errorf("contribution at k=13 = %v; should be ≈ 0", ProbOfK(g, b, 13))
	}
	// Summing contributions up to the paper's bound reproduces Precise.
	kmax := TruncationBound(g, b)
	if kmax < 8 || kmax > 15 {
		t.Errorf("truncation bound = %d; paper computes ≈ 12", kmax)
	}
	sum := 0.0
	for k := 2; k <= kmax; k++ {
		sum += ProbOfK(g, b, k)
	}
	if rel := math.Abs(sum-Precise(g, b)) / Precise(g, b); rel > 1e-3 {
		t.Errorf("Σ ProbOfK = %v vs Precise = %v", sum, Precise(g, b))
	}
}

func TestClustered(t *testing.T) {
	if got := Clustered(0.4, 10); math.Abs(got-0.04) > 1e-12 {
		t.Errorf("Clustered(0.4, 10) = %v", got)
	}
	if got := Clustered(0.4, 1); got != 0.4 {
		t.Errorf("Clustered with l_a=1 changed the rate: %v", got)
	}
	if got := Clustered(0.4, 0); got != 0.4 {
		t.Errorf("Clustered must treat l_a<1 as 1: %v", got)
	}
}

func TestLinearLow(t *testing.T) {
	// Equation 16 at g/b = 1 gives about 0.38, close to the true e^-1.
	if got := LinearLow(1); math.Abs(got-0.3807) > 1e-4 {
		t.Errorf("LinearLow(1) = %v", got)
	}
	if LinearLow(0) != 0 || LinearLow(-1) != 0 {
		t.Error("LinearLow must be 0 for r ≤ 0")
	}
	// Against the precise model the published linear law is accurate in
	// the upper part of its validity range (x ≤ 0.4 ⇒ r ≲ 1.05); at tiny
	// r its additive constant dominates, which the paper tolerates (it
	// reports a 5% *average* error over the zoomed region).
	for r := 0.4; r <= 1.05; r += 0.05 {
		x := Precise(r*1000, 1000)
		if rel := math.Abs(LinearLow(r)-x) / x; rel > 0.15 {
			t.Errorf("r=%v: LinearLow=%v vs Precise=%v (rel %v)", r, LinearLow(r), x, rel)
		}
	}
}

func TestCurveAccuracy(t *testing.T) {
	c := NewCurve()
	// Paper: ≤ 5% max relative error of the regression against the
	// tabulated precise values, per interval (lo, hi].
	for i := 0; i+1 < len(curveBreaks); i++ {
		lo, hi := curveBreaks[i], curveBreaks[i+1]
		worst := 0.0
		for j, r := range c.rs {
			if r > lo && r <= hi && c.xs[j] >= 1e-9 {
				worst = max(worst, math.Abs(c.Rate(r)-c.xs[j])/c.xs[j])
			}
		}
		if worst > 0.05 {
			t.Errorf("interval (%v,%v]: max rel err %.4f exceeds 5%%", lo, hi, worst)
		}
	}
	// Beyond the fitted range the closed form takes over smoothly.
	if got := c.Rate(80); math.Abs(got-Closed(80000, 1000)) > 1e-9 {
		t.Errorf("tail Rate(80) = %v", got)
	}
	if c.Rate(0) != 0 || c.Rate(-3) != 0 {
		t.Error("Rate must be 0 for r ≤ 0")
	}
}

func TestCurveFitLinearLow(t *testing.T) {
	alpha, mu, err := DefaultCurve.FitLinearLow(0.4)
	if err != nil {
		t.Fatal(err)
	}
	// The refit should land near the paper's published coefficients.
	if math.Abs(mu-LinearMu) > 0.05 {
		t.Errorf("fitted mu = %v; paper reports %v", mu, LinearMu)
	}
	if math.Abs(alpha-LinearAlpha) > 0.03 {
		t.Errorf("fitted alpha = %v; paper reports %v", alpha, LinearAlpha)
	}
	if _, _, err := DefaultCurve.FitLinearLow(-1); err == nil {
		t.Error("impossible fit accepted")
	}
}

func TestRateConvenience(t *testing.T) {
	if got, want := Rate(3000, 1000), Precise(3000, 1000); math.Abs(got-want)/want > 0.05 {
		t.Errorf("Rate = %v; Precise = %v", got, want)
	}
	if Rate(10, 0) != 1 {
		t.Error("Rate with b=0 should saturate at 1")
	}
}

// TestModelAgainstSimulation validates the model against the actual hash
// tables (the package hashtab implementation), reproducing the paper's
// claim that >95% of measurements fall within 5% of the precise model.
// probeOne folds one count(*) observation of the one-attribute key v into
// tab; the simulations read only the table's statistics.
func probeOne(tab *hashtab.Table, v uint32) {
	var victims hashtab.VictimRun
	victims.Reset()
	tab.ProbeInto([]uint32{v}, []int64{1}, &victims)
}

// Random (non-clustered) data, several g/b points. The tables probe
// 16-slot groups (hashtab.GroupSlots), so the measured rates are held to
// the grouped generalization PreciseSlots; TestSlotsReduceToPaper keeps
// that generalization anchored to the paper's Equation 13.
func TestModelAgainstSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation is slow in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	rel := attr.MustParseSet("A")
	for _, tc := range []struct{ g, b int }{
		{552, 1000}, {1846, 1000}, {2117, 600}, {2837, 400}, {2000, 2000},
	} {
		// Average over a few independent hash seeds to suppress seed noise.
		const trials = 5
		var meanRate float64
		for trial := 0; trial < trials; trial++ {
			tab := hashtab.MustNew(rel, tc.b, []hashtab.AggOp{hashtab.Sum}, uint64(trial)*977+1)
			n := 40 * tc.g
			for i := 0; i < n; i++ {
				v := uint32(rng.Intn(tc.g))
				probeOne(tab, v)
			}
			meanRate += tab.Stats().CollisionRate()
		}
		meanRate /= trials
		model := PreciseSlots(float64(tc.g), float64(tc.b), hashtab.GroupSlots)
		// Relative 8% like the paper's claim, with an absolute floor: in
		// the grouped geometry light loads collide a few times in 10⁴
		// probes, where the binomial tail (and the measurement itself)
		// carries no finer resolution.
		if diff := math.Abs(meanRate - model); diff > math.Max(0.08*model, 0.002) {
			t.Errorf("g=%d b=%d: measured %v vs model %v (diff %.4f)",
				tc.g, tc.b, meanRate, model, diff)
		}
	}
}

// TestClusteredAgainstSimulation validates Equation 15 on flow-clustered
// streams: measured rate ≈ random-model rate / l_a.
func TestClusteredAgainstSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation is slow in -short mode")
	}
	rng := rand.New(rand.NewSource(11))
	rel := attr.MustParseSet("A")
	g, b := 2000, 1000
	flowLen := 10
	tab := hashtab.MustNew(rel, b, []hashtab.AggOp{hashtab.Sum}, 5)
	// Emit flows back to back: flowLen consecutive records per group.
	// (Back-to-back is the idealized clusteredness of Section 4.3.)
	for i := 0; i < 30000; i++ {
		v := uint32(rng.Intn(g))
		for j := 0; j < flowLen; j++ {
			probeOne(tab, v)
		}
	}
	measured := tab.Stats().CollisionRate()
	model := Clustered(PreciseSlots(float64(g), float64(b), hashtab.GroupSlots), float64(flowLen))
	if rel := math.Abs(measured-model) / model; rel > 0.15 {
		t.Errorf("clustered: measured %v vs model %v", measured, model)
	}
	// The table's own estimator measures records per bucket *occupancy*:
	// at least the flow length, and larger when a group's next flow
	// arrives before the entry was evicted (g/b = 2 here, so recurrence
	// is common). It must never undershoot l_a.
	if la := tab.Stats().AvgFlowLength(); la < float64(flowLen)*0.95 || la > float64(flowLen)*3 {
		t.Errorf("estimated occupancy length %v; want within [%d, %d]", la, flowLen, 3*flowLen)
	}
}

func BenchmarkPrecise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Precise(3000, 1000)
	}
}

func BenchmarkCurveRate(b *testing.B) {
	c := NewCurve()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Rate(3.0)
	}
}
