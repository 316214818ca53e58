package core

import (
	"fmt"
	"testing"

	"repro/internal/attr"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/stream"
)

func TestResultHandlerStreamsAndBoundsMemory(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	queries := []attr.Set{
		attr.MustParseSet("AB"), attr.MustParseSet("BC"),
		attr.MustParseSet("BD"), attr.MustParseSet("CD"),
	}
	want := hfta.Reference(recs, queries, lfta.CountStar, 10)

	var streamed []hfta.Row
	handled := map[attr.Set]map[uint32]bool{}
	e, err := New(pairSQL, groups, Options{
		M:    8000,
		Seed: 3,
		OnResults: func(rel attr.Set, epoch uint32, rows []hfta.Row, deg Degradation) {
			if handled[rel] == nil {
				handled[rel] = map[uint32]bool{}
			}
			if handled[rel][epoch] {
				t.Errorf("epoch %d of %v delivered twice", epoch, rel)
			}
			handled[rel][epoch] = true
			streamed = append(streamed, copyRows(rows)...) // rows are borrowed
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	// Streamed rows cover exactly the reference (order may differ by
	// relation interleaving, so compare as multisets via sort-insensitive
	// total counting).
	if len(streamed) != len(want) {
		t.Fatalf("streamed %d rows; reference has %d", len(streamed), len(want))
	}
	var total, wantTotal int64
	for i := range streamed {
		total += streamed[i].Aggs[0]
		wantTotal += want[i].Aggs[0]
	}
	if total != wantTotal {
		t.Errorf("streamed counts sum to %d; reference %d", total, wantTotal)
	}
	// Engine state was dropped: AllResults must be empty.
	if left := e.AllResults(); len(left) != 0 {
		t.Errorf("%d rows retained despite the result handler", len(left))
	}
	// Every query saw every epoch.
	for _, q := range queries {
		if len(handled[q]) != 5 {
			t.Errorf("query %v delivered %d epochs; want 5", q, len(handled[q]))
		}
	}
}

func TestResultHandlerWithAdaptive(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	delivered := 0
	e, err := New(pairSQL, groups, Options{
		M:    8000,
		Seed: 3,
		Adapt: AdaptOptions{
			Enabled:     true,
			EveryEpochs: 1,
		},
		OnResults: func(rel attr.Set, epoch uint32, rows []hfta.Row, deg Degradation) {
			delivered += len(rows)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	if delivered == 0 {
		t.Error("adaptive engine with handler delivered nothing")
	}
	// Group estimates were refreshed from streamed epochs: the planner's
	// counts now reflect per-epoch measurements, not the sample.
	if e.Groups()[attr.MustParseSet("AB")] <= 0 {
		t.Error("group estimates lost")
	}
}

// TestResultErrorsSurfaced: a failure while emitting one query's epoch is
// counted, does not abort the other queries' deliveries, and the first
// error reaches the caller through Finish instead of being swallowed.
func TestResultErrorsSurfaced(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	delivered := map[attr.Set]int{}
	e, err := New(pairSQL, groups, Options{
		M:    8000,
		Seed: 3,
		OnResults: func(rel attr.Set, epoch uint32, rows []hfta.Row, deg Degradation) {
			delivered[rel]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fail one query's row source on every epoch, simulating a downstream
	// fault in the emission path.
	broken := attr.MustParseSet("BC")
	real := e.emitResults
	e.emitResults = func(rel attr.Set, epoch uint32) ([]hfta.Row, error) {
		if rel == broken {
			return nil, fmt.Errorf("row source of %v is gone", rel)
		}
		return real(rel, epoch)
	}

	for _, r := range recs {
		if err := e.Process(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Finish(); err == nil {
		t.Fatal("Finish swallowed the result errors")
	}
	st := e.Stats()
	if st.ResultErrors != 5 {
		t.Errorf("ResultErrors = %d; want 5 (one per epoch)", st.ResultErrors)
	}
	// The other queries still saw all five epochs.
	for _, q := range []string{"AB", "BD", "CD"} {
		if rel := attr.MustParseSet(q); delivered[rel] != 5 {
			t.Errorf("query %v delivered %d epochs; want 5", rel, delivered[rel])
		}
	}
	if delivered[broken] != 0 {
		t.Errorf("broken query delivered %d epochs; want 0", delivered[broken])
	}
}

func TestDiagnostics(t *testing.T) {
	recs, groups := testWorkload(t, 20000)
	e, err := New(pairSQL, groups, Options{M: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:10000] {
		if err := e.Process(r); err != nil {
			t.Fatal(err)
		}
	}
	d, err := e.Diagnostics()
	if err != nil {
		t.Fatal(err)
	}
	diags := d.Tables
	if len(diags) != len(e.Plan().Config.Rels) {
		t.Fatalf("diagnostics cover %d of %d tables", len(diags), len(e.Plan().Config.Rels))
	}
	if d.Total.Offered != 10000 || d.Total.Processed != 10000 {
		t.Errorf("degradation totals = %+v; want 10000 offered and processed", d.Total)
	}
	sawRaw, sawQuery := false, false
	for _, d := range diags {
		if d.Buckets < 1 || d.Groups <= 0 {
			t.Errorf("%v: buckets %d, groups %v", d.Rel, d.Buckets, d.Groups)
		}
		if d.ModeledRate < 0 || d.ModeledRate > 1 || d.MeasuredRate < 0 || d.MeasuredRate > 1 {
			t.Errorf("%v: rates %v / %v", d.Rel, d.ModeledRate, d.MeasuredRate)
		}
		if d.IsRaw {
			sawRaw = true
			if d.Probes == 0 {
				t.Errorf("raw table %v saw no probes", d.Rel)
			}
		}
		if d.IsQuery {
			sawQuery = true
		}
	}
	if !sawRaw || !sawQuery {
		t.Error("diagnostics missing raw or query tables")
	}
}
