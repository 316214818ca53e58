package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/hfta"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// directPanes is the reference for the pane sketches' phantom: every
// admitted record observed into every query's group partial directly, as
// the engine did before it kept one index of distinct F-tuples per pane.
// It holds the partials of the pane at each epoch, by query and packed key.
type directPanes struct {
	queries []attr.Set
	aggs    []sketch.Agg
	prec    uint8
	panes   map[uint32][]map[string]*sketch.Partial
}

func (d *directPanes) observe(epoch uint32, attrs []uint32) {
	p := d.panes[epoch]
	if p == nil {
		p = make([]map[string]*sketch.Partial, len(d.queries))
		for i := range p {
			p[i] = map[string]*sketch.Partial{}
		}
		d.panes[epoch] = p
	}
	for i, q := range d.queries {
		k := hfta.PackKey(q.Project(attrs, nil))
		part := p[i][k]
		if part == nil {
			part, _ = sketch.NewPartial(d.aggs, d.prec, 0)
			p[i][k] = part
		}
		part.Observe(attrs)
	}
}

// TestPanePhantomMatchesDirect holds the engine's pane partials — derived at
// pane close from the distinct F-tuples — to the direct model, blob for
// blob, pane by pane: Distinct inputs inside and outside the query keys and
// past the tuple's width (which observe 0), count_distinct beside
// percentile, WHERE on and off, one and two shards, and random batch
// splits, which put pane boundaries inside batches.
func TestPanePhantomMatchesDirect(t *testing.T) {
	const aggs = "count(*) as cnt, count_distinct(D) as ud, count_distinct(B) as ub, count_distinct(F) as uf"
	mixed := aggs + ", percentile(C, 90) as p90"
	sqls := func(aggs, where string) []string {
		var out []string
		for _, g := range []string{"A, B", "B, C", "C"} {
			out = append(out, fmt.Sprintf("select %s, %s from R %s group by %s, time/10 window 4 slide 2", g, aggs, where, g))
		}
		return out
	}
	rng := rand.New(rand.NewSource(41))
	recs := make([]stream.Record, 6000)
	for i := range recs {
		// Small domains, so a pane repeats its tuples.
		recs[i] = stream.Record{Attrs: []uint32{uint32(rng.Intn(12)), uint32(rng.Intn(9)), uint32(rng.Intn(7)), uint32(rng.Intn(40))}, Time: uint32(i / 37)}
	}
	for _, tc := range []struct {
		name   string
		aggs   string
		where  string
		shards int
	}{
		{"distinct", aggs, "", 0},
		{"distinct/where", aggs, "where A < 8", 0},
		{"mixed/shards=2", mixed, "", 2},
		{"mixed/where/shards=2", mixed, "where A < 8", 2},
		{"distinct/where/shards=2", aggs, "where A < 8", 2},
		{"mixed", mixed, "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e *Engine
			var direct *directPanes
			panes := 0
			check := func(_ attr.Set, epoch uint32, _ []hfta.Row, _ Degradation) {
				if panes++; panes%len(e.queries) != 0 {
					return // once per epoch, after its last query
				}
				want := direct.panes[epoch]
				_, runs, ok := e.winComposer.Pane(epoch)
				if !ok {
					t.Fatalf("epoch %d: no pane retained", epoch)
				}
				for qi, q := range e.queries {
					var rp *hfta.PaneRun
					if runs != nil {
						rp = runs[qi]
					}
					n := 0
					for g := 0; rp != nil && g < rp.Len(); g++ {
						if !rp.HasSketch(g) {
							continue
						}
						n++
						key := rp.Key(g, q.Size())
						part := want[qi][hfta.PackKey(key)]
						if part == nil {
							t.Fatalf("epoch %d %v: group %v has a partial the direct model never fed", epoch, q, key)
						}
						if !bytes.Equal(rp.Partial(g), part.AppendBinary(nil)) {
							t.Fatalf("epoch %d %v group %v: derived partial differs from direct observation", epoch, q, key)
						}
					}
					if want != nil && n != len(want[qi]) {
						t.Fatalf("epoch %d %v: %d partials, direct model %d", epoch, q, n, len(want[qi]))
					}
				}
			}
			var err error
			e, err = NewFromSample(sqls(tc.aggs, tc.where), recs[:2000], Options{M: 4000, Seed: 3, Shards: tc.shards, OnResults: check})
			if err != nil {
				t.Fatal(err)
			}
			direct = &directPanes{queries: e.queries, aggs: e.sketchAggs, prec: e.sketchPrecision(), panes: map[uint32][]map[string]*sketch.Partial{}}
			for _, r := range recs {
				if e.specs[0].MatchWhere(r.Attrs) {
					direct.observe(r.Time/10, r.Attrs)
				}
			}
			src := stream.NewSliceSource(recs)
			var cb stream.ColumnBatch
			for stream.ReadColumns(src, &cb, 1+rng.Intn(700)) > 0 {
				if err := e.ProcessColumnBatch(&cb); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Finish(); err != nil {
				t.Fatal(err)
			}
			if want := int(recs[len(recs)-1].Time/10) + 1; panes != want*len(e.queries) {
				t.Fatalf("checked %d query panes, want %d epochs × %d queries", panes, want, len(e.queries))
			}
		})
	}
}

// TestDeltaFrameAllocsIndependentOfGroups: a checkpoint-log frame encodes
// the newly fed pane straight from the composer's runs, so what it
// allocates does not grow with the pane's groups.
func TestDeltaFrameAllocsIndependentOfGroups(t *testing.T) {
	measure := func(groups int) (allocs float64, size int) {
		recs := make([]stream.Record, 10*groups)
		for i := range recs {
			g := uint32(i % groups)
			recs[i] = stream.Record{Attrs: []uint32{g, g / 3, g % 5, uint32(i)}, Time: uint32(10 * (i / groups))}
		}
		e, err := NewFromSample(admitSQL, recs, Options{
			M: 8000, Seed: 3, Shards: 2,
			OnResults: func(attr.Set, uint32, []hfta.Row, Degradation) {},
			OnWindow:  func(attr.Set, hfta.WindowLedger, []hfta.WindowRow) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		feed := func(recs []stream.Record) {
			src := stream.NewSliceSource(recs)
			var cb stream.ColumnBatch
			for stream.ReadColumns(src, &cb, stream.ColumnBatchLen) > 0 {
				if err := e.ProcessColumnBatch(&cb); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Close epochs 0–7 and mark the log there, as a boundary's record
		// does; then close epoch 8, whose pane the next frame carries.
		feed(recs[:8*groups+1])
		e.markCkpt()
		feed(recs[8*groups+1 : 9*groups+1])
		frame := e.deltaFrame()
		if frame == nil {
			t.Fatal("no frame")
		}
		size = len(frame)
		return testing.AllocsPerRun(20, func() { e.deltaFrame() }), size
	}
	few, fewSize := measure(50)
	many, manySize := measure(3000)
	if manySize < fewSize+2950*2*10 {
		t.Fatalf("frame grew from %d to %d bytes over 2950 more groups; the pane is missing", fewSize, manySize)
	}
	t.Logf("deltaFrame: %.0f allocs at 50 groups (%d B), %.0f at 3000 (%d B)", few, fewSize, many, manySize)
	if few != many || many > 10 {
		t.Errorf("deltaFrame allocates %.0f times over a pane of 50 groups and %.0f over 3000, want one small constant", few, many)
	}
}
