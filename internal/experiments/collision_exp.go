package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/attr"
	"repro/internal/collision"
	"repro/internal/gen"
	"repro/internal/hashtab"
	"repro/internal/stream"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Fig5 reproduces Figure 5: measured collision rates of the (surrogate)
// real data with clusteredness removed — datasets of 1, 2, 3 and 4
// attributes — against the rough (Eq 10) and precise (Eq 13) models, as a
// function of g/b. The rough and precise columns are the paper's
// one-slot-bucket curves; since the tables probe 16-slot groups (PR 6),
// a grouped column (PreciseSlots at the same r) gives the geometry the
// measured columns actually obey, and each measurement is judged against
// the grouped model at its own exact (g, b) — partial final group
// included.
func Fig5(ctx *Context) (*Table, error) {
	u, ft, err := ctx.paperData()
	if err != nil {
		return nil, err
	}
	// One record per flow removes clusteredness, as Section 4.2 does.
	flat := ft.OnePerFlow()

	rels := []attr.Set{
		attr.MustParseSet("A"),
		attr.MustParseSet("AB"),
		attr.MustParseSet("ABC"),
		attr.MustParseSet("ABCD"),
	}
	ratios := []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if ctx.Quick {
		ratios = []float64{0.5, 1, 2, 4, 8}
	}

	t := &Table{
		ID:      "fig5",
		Title:   "Collision rates of real data (clusteredness removed) vs models",
		Columns: []string{"g/b", "rough", "precise", "grouped", "meas 1attr", "meas 2attr", "meas 3attr", "meas 4attr", "meas synth"},
	}
	maxErr, maxSynthErr := 0.0, 0.0
	for _, r := range ratios {
		row := []string{
			fmtF(r),
			fmtF(collision.Rough(r*1000, 1000)),
			fmtF(collision.Precise(r*1000, 1000)),
			fmtF(collision.PreciseSlots(r*1024, 1024, collision.TableSlots)),
		}
		for _, rel := range rels {
			g := u.GroupCount(rel)
			b := int(float64(g) / r)
			if b < 1 {
				b = 1
			}
			// Replay the de-clustered records enough times that the
			// steady state dominates the initial table fill; the model
			// describes steady-state behaviour.
			passes := 1
			if need := 40 * g; need > len(flat) {
				passes = (need + len(flat) - 1) / len(flat)
			}
			// Average over enough seeds that per-seed placement noise
			// (±0.03 at the small arity-1 group counts) does not dominate
			// the comparison against the model.
			measured := measureRate(flat, rel, b, passes, 9)
			row = append(row, fmtF(measured))
			model := collision.PreciseSlots(float64(g), float64(b), collision.TableSlots)
			if model > 0.3 {
				if e := math.Abs(measured-model) / model; e > maxErr {
					maxErr = e
				}
			}
		}
		// Synthetic check under the model's exact assumptions: every
		// group equally frequent, random arrival order (the paper's
		// "results for the synthetic datasets are very similar").
		{
			rel := rels[len(rels)-1]
			g := u.GroupCount(rel)
			b := int(float64(g) / r)
			if b < 1 {
				b = 1
			}
			measured := measureRateEqualFreq(u, rel, b, 40, ctx.Seed)
			row = append(row, fmtF(measured))
			model := collision.PreciseSlots(float64(g), float64(b), collision.TableSlots)
			if model > 0.3 {
				if e := math.Abs(measured-model) / model; e > maxSynthErr {
					maxSynthErr = e
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("max relative deviation from the grouped model: trace %.1f%%, equal-frequency synthetic %.1f%% (paper reports >95%% of points within 5%% of its one-slot model)", maxErr*100, maxSynthErr*100),
		"trace measurements sit below the model because group frequencies are unequal (flows per group are Poisson-distributed): frequently probed groups hold their slots, and a 16-slot group keeps its top 16 that way, so the skew discount is larger than in the paper's one-slot geometry — the equal-frequency model is an upper bound",
		fmt.Sprintf("group counts: A=%d AB=%d ABC=%d ABCD=%d (paper: 552, 1846, 2117, 2837)",
			u.GroupCount(rels[0]), u.GroupCount(rels[1]), u.GroupCount(rels[2]), u.GroupCount(rels[3])))
	return t, nil
}

// measureRateEqualFreq measures the collision rate under the model's
// exact assumptions: records drawn i.i.d. uniformly over the universe's
// groups (so every group is equally likely on every draw), passes·g draws
// in total.
func measureRateEqualFreq(u *gen.Universe, rel attr.Set, b, passes int, seed int64) float64 {
	rng := newRng(seed + int64(b))
	tab := hashtab.MustNew(rel, b, []hashtab.AggOp{hashtab.Sum}, uint64(seed)*31+7)
	var key []uint32
	var victims hashtab.VictimRun
	for n := passes * len(u.Tuples); n > 0; n-- {
		key = rel.Project(u.Tuples[rng.Intn(len(u.Tuples))], key)
		victims.Reset() // victims are discarded: only the statistics count
		tab.ProbeInto(key, []int64{1}, &victims)
	}
	return tab.Stats().CollisionRate()
}

// measureRate streams the records through a hash table for rel with b
// buckets (passes full replays), averaging over a few hash seeds.
func measureRate(recs []stream.Record, rel attr.Set, b, passes, trials int) float64 {
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		tab := hashtab.MustNew(rel, b, []hashtab.AggOp{hashtab.Sum}, uint64(trial)*1009+13)
		var key []uint32
		var victims hashtab.VictimRun
		for pass := 0; pass < passes; pass++ {
			for i := range recs {
				key = rel.Project(recs[i].Attrs, key)
				victims.Reset()
				tab.ProbeInto(key, []int64{1}, &victims)
			}
		}
		sum += tab.Stats().CollisionRate()
	}
	return sum / float64(trials)
}

// Fig6 reproduces Figure 6: the per-k collision probability at g=3000,
// b=1000, whose bell shape justifies the μ+5σ truncation.
func Fig6(*Context) (*Table, error) {
	const g, b = 3000, 1000
	t := &Table{
		ID:      "fig6",
		Title:   "Probability of collision vs k (g=3000, b=1000)",
		Columns: []string{"k", "contribution"},
	}
	peakK, peakV := 0, 0.0
	for k := 2; k <= 20; k++ {
		v := collision.ProbOfK(g, b, k)
		if v > peakV {
			peakK, peakV = k, v
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), fmtF(v)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("peak at k=%d, value %.3f (paper: k=4, ≈0.16); μ+5σ bound = %d (paper: ≈12)",
			peakK, peakV, collision.TruncationBound(g, b)))
	return t, nil
}

// Table1 reproduces Table 1: for fixed g/b the collision rate barely
// varies as b sweeps 300..3000.
func Table1(*Context) (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   "Variation of collision rate across b∈[300,3000] at fixed g/b",
		Columns: []string{"g/b", "variation"},
	}
	for _, r := range []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32} {
		lo, hi := math.Inf(1), math.Inf(-1)
		for b := 300.0; b <= 3000; b += 100 {
			x := collision.Precise(r*b, b)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		variation := 0.0
		if hi > 0 {
			variation = (hi - lo) / hi
		}
		t.Rows = append(t.Rows, []string{fmtF(r), fmtPct(variation)})
	}
	t.Notes = append(t.Notes, "paper reports 1.4, 0.43, 0.15, 0.03, 0.004, 0, 0, 0 (%)")
	return t, nil
}

// Fig7 reproduces Figure 7: the collision-rate curve as a function of
// g/b, with the fitted piecewise regression beside the precise model.
func Fig7(ctx *Context) (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "Collision rate curve x(g/b) with piecewise regression",
		Columns: []string{"g/b", "precise", "regression"},
	}
	step := 1.0
	if ctx.Quick {
		step = 5.0
	}
	curve := collision.DefaultCurve
	worst := 0.0
	for r := step; r <= 50; r += step {
		precise := collision.Precise(r*1000, 1000)
		fitted := curve.Rate(r)
		if precise > 1e-6 {
			if e := math.Abs(fitted-precise) / precise; e > worst {
				worst = e
			}
		}
		t.Rows = append(t.Rows, []string{fmtF(r), fmtF(precise), fmtF(fitted)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("max regression error on shown points: %.2f%% (paper: ≤5%% per interval, <1%% average)", worst*100))
	return t, nil
}

// Fig8 reproduces Figure 8: the low part of the collision-rate curve
// (x ≤ 0.4) and its linear regression, compared with Equation 16's
// published coefficients x = 0.0267 + 0.354·(g/b).
func Fig8(ctx *Context) (*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "Low collision-rate region and linear regression",
		Columns: []string{"g/b", "precise", "eq16"},
	}
	step := 0.05
	if ctx.Quick {
		step = 0.2
	}
	for r := step; r <= 1.05; r += step {
		t.Rows = append(t.Rows, []string{
			fmtF(r),
			fmtF(collision.Precise(r*1000, 1000)),
			fmtF(collision.LinearLow(r)),
		})
	}
	alpha, mu, err := collision.DefaultCurve.FitLinearLow(0.4)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("refit over x≤0.4: x = %.4f + %.3f·(g/b); paper Eq 16: x = 0.0267 + 0.354·(g/b)", alpha, mu))
	return t, nil
}
