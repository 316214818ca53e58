package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/stream"
)

// sumCounts folds streamed rows into per-(query, epoch) count(*) totals.
type epochKey struct {
	rel   attr.Set
	epoch uint32
}

func runShedding(t *testing.T, budget float64, shed ShedPolicy) (*Engine, map[epochKey]uint64) {
	t.Helper()
	recs, groups := testWorkload(t, 30000)
	sums := map[epochKey]uint64{}
	e, err := New(pairSQL, groups, Options{
		M:      8000,
		Seed:   3,
		Budget: budget,
		Shed:   shed,
		OnResults: func(rel attr.Set, epoch uint32, rows []hfta.Row, deg Degradation) {
			for i := range rows {
				sums[epochKey{rel, epoch}] += uint64(rows[i].Aggs[0])
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	return e, sums
}

// TestSheddingAccountingInvariant: with any policy and budget, every
// record is accounted for exactly once — Offered == Processed + Dropped +
// Late per epoch and in total — and the emitted answers are exact over
// exactly the Processed records (each query's count(*) totals sum to the
// epoch's Processed).
func TestSheddingAccountingInvariant(t *testing.T) {
	for _, tc := range []struct {
		name string
		shed ShedPolicy
	}{
		{"droptail", DropTail{}},
		{"uniform", NewUniformShed(0.5, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// 30000 records over 50 time units is 600/tick; budget 900
			// weighted units per tick affords well under 600 records once
			// probes and transfers are charged, forcing steady shedding.
			e, sums := runShedding(t, 900, tc.shed)
			degs := e.EpochDegradations()
			if len(degs) != 5 {
				t.Fatalf("closed %d epochs; want 5", len(degs))
			}
			var totalOffered, totalDropped uint64
			for _, d := range degs {
				if d.Offered != d.Processed+d.Dropped+d.Late {
					t.Errorf("epoch %d: offered %d != processed %d + dropped %d + late %d",
						d.Epoch, d.Offered, d.Processed, d.Dropped, d.Late)
				}
				totalOffered += d.Offered
				totalDropped += d.Dropped
				// Exactness over the processed records: every count(*) query
				// saw exactly the admitted records of the epoch.
				for _, q := range []string{"AB", "BC", "BD", "CD"} {
					rel := attr.MustParseSet(q)
					if got := sums[epochKey{rel, d.Epoch}]; got != d.Processed {
						t.Errorf("epoch %d query %v: counts sum to %d; processed %d",
							d.Epoch, rel, got, d.Processed)
					}
				}
			}
			if totalOffered != 30000 {
				t.Errorf("offered %d records in total; want 30000", totalOffered)
			}
			if totalDropped == 0 {
				t.Error("budget never forced a drop; the test exercises nothing")
			}
			st := e.Stats()
			if st.Degradation.Offered != st.Degradation.Processed+st.Degradation.Dropped+st.Degradation.Late {
				t.Errorf("cumulative accounting broken: %+v", st.Degradation)
			}
			if rate := st.Degradation.SheddingRate(); rate <= 0 || rate >= 1 {
				t.Errorf("shedding rate %v out of (0,1)", rate)
			}
		})
	}
}

// TestSheddingDisabledIsLossless: Budget 0 keeps the engine exact and
// accounts everything as processed.
func TestSheddingDisabledIsLossless(t *testing.T) {
	e, _ := runShedding(t, 0, nil)
	d := e.Stats().Degradation
	if d.Offered != 30000 || d.Processed != 30000 || d.Dropped != 0 || d.Late != 0 {
		t.Errorf("lossless run degraded: %+v", d)
	}
	if d.SheddingRate() != 0 {
		t.Errorf("shedding rate %v; want 0", d.SheddingRate())
	}
}

// TestUniformShedDeterminism: the same seed yields byte-identical
// degradation histories; the policy is reproducible chaos, not noise.
func TestUniformShedDeterminism(t *testing.T) {
	run := func() []Degradation {
		e, _ := runShedding(t, 900, NewUniformShed(0.5, 7))
		return e.EpochDegradations()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs closed %d vs %d epochs", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("epoch %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestUniformShedAdapts: under sustained overload the uniform policy
// learns a positive proactive rate and spreads drops across each time
// unit, rather than truncating its tail like drop-tail.
// TestUniformShedThresholdMatchesFloat: Admit's integer comparison decides
// exactly as the float predicate it replaced, draw/2^53 >= rate, for random
// (rate, draw) pairs, for the draws either side of every threshold, and at
// the edge rates.
func TestUniformShedThresholdMatchesFloat(t *testing.T) {
	const top = uint64(1)<<53 - 1 // largest 53-bit draw
	check := func(rate float64, draw uint64) {
		want := float64(draw)/(1<<53) >= rate
		if got := draw >= shedThreshold(rate); got != want {
			t.Fatalf("rate %v (threshold %d), draw %d: integer compare admits %v; float predicate %v",
				rate, shedThreshold(rate), draw, got, want)
		}
	}
	rng := rand.New(rand.NewSource(8))
	rates := []float64{0, 0x1p-53, 0.5, 0.95, math.Nextafter(1, 0)}
	for i := 0; i < 1_000_000; i++ {
		rate := rng.Float64()
		check(rate, rng.Uint64()>>11)
		if i < 1000 {
			rates = append(rates, rate, rate*0x1p-30) // and some tiny ones
		}
	}
	for _, rate := range rates {
		th := shedThreshold(rate)
		for _, draw := range []uint64{0, th - 1, th, th + 1, top} {
			if draw > top { // th-1 wraps at rate 0
				draw = top
			}
			check(rate, draw)
		}
	}

	// And through the policy itself: the restored rate sets the threshold.
	u := NewUniformShed(0, 1)
	if err := u.RestoreShedState([]uint64{math.Float64bits(0.25), 99}); err != nil {
		t.Fatal(err)
	}
	v := *u
	for i := 0; i < 10000; i++ {
		want := float64(v.next()>>11)/(1<<53) >= 0.25
		if got := u.Admit(stream.Record{}, false); got != want {
			t.Fatalf("draw %d: Admit = %v; float predicate %v", i, got, want)
		}
	}
}

func TestUniformShedAdapts(t *testing.T) {
	u := NewUniformShed(0.5, 7)
	e, _ := runShedding(t, 900, u)
	if u.Rate() <= 0 {
		t.Error("uniform shedder never adapted its rate")
	}
	if e.Stats().Degradation.Dropped == 0 {
		t.Error("no drops under overload")
	}
}

// TestLateRecordsCounted: records regressing into closed epochs are
// dropped as Late, and the remaining answers stay exact.
func TestLateRecordsCounted(t *testing.T) {
	recs, groups := testWorkload(t, 10000)
	// Push 20 records from the last epoch back to time 0 after the stream
	// has advanced: they regress across closed epoch boundaries.
	chaotic := append([]stream.Record(nil), recs...)
	for i := 0; i < 20; i++ {
		r := chaotic[len(chaotic)-1-i]
		chaotic = append(chaotic, stream.Record{Attrs: r.Attrs, Time: 0})
	}
	e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(chaotic)); err != nil {
		t.Fatal(err)
	}
	d := e.Stats().Degradation
	if d.Late != 20 {
		t.Errorf("late = %d; want 20", d.Late)
	}
	if d.Offered != uint64(len(chaotic)) || d.Processed != uint64(len(recs)) {
		t.Errorf("accounting %+v; want offered %d processed %d", d, len(chaotic), len(recs))
	}
	// The on-time prefix is still answered exactly.
	want := hfta.Reference(recs, e.queries, lfta.CountStar, 10)
	if !hfta.Equal(e.AllResults(), want) {
		t.Error("late records corrupted the on-time answers")
	}
}

// TestShedOptionValidation: malformed overload options are rejected at
// construction.
func TestShedOptionValidation(t *testing.T) {
	_, groups := testWorkload(t, 1000)
	if _, err := New(pairSQL, groups, Options{M: 8000, Budget: -1}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := New(pairSQL, groups, Options{M: 8000, PeakRepairEpochs: 2}); err == nil {
		t.Error("PeakRepairEpochs without PeakEu accepted")
	}
}

// TestOnlinePeakRepair: when the measured end-of-epoch flush cost exceeds
// the configured peak for k consecutive epochs, the engine re-applies the
// peak-load repair to the live allocation and counts it.
func TestOnlinePeakRepair(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	// Underestimate the group counts 50x: the planner believes the peak
	// constraint is met, but the real stream fills far more buckets than
	// modeled, so the measured end-of-epoch flush cost violates PeakEu
	// every epoch and the repair must fire (this is exactly the model-drift
	// scenario the online repair exists for — the plan-time repair alone
	// cannot catch it).
	for r := range groups {
		groups[r] *= 0.02
		if groups[r] < 1 {
			groups[r] = 1
		}
	}
	e, err := New(pairSQL, groups, Options{
		M:                8000,
		Seed:             3,
		PeakEu:           2000,
		PeakRepairEpochs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	if e.Stats().PeakRepairs == 0 {
		t.Error("measured overload never triggered a peak repair")
	}
}
