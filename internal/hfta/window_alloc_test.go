package hfta

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/lfta"
	"repro/internal/sketch"
)

// TestComposerSteadyStateAllocs gates the composer's recycling: with
// results handed back via Recycle, steady-state pane close + window
// composition must not allocate per group, with or without a
// count_distinct per group (every pane blob is decoded into a pooled
// partial; a t-digest would still be rebuilt per blob). A pane's groups
// are sorted into flat columns — the pane struct, its run slice and the
// run's key, slot, flag, offset and blob columns — and CloseThrough
// returns one result slice, so the bound is a constant: no map-key string
// per group, as the map-keyed composer interned, and not the thousands of
// allocations the unpooled composer paid per op.
func TestComposerSteadyStateAllocs(t *testing.T) {
	t.Run("exact", func(t *testing.T) { composerSteadyStateAllocs(t, nil) })
	t.Run("distinct", func(t *testing.T) {
		composerSteadyStateAllocs(t, []sketch.Agg{{Kind: sketch.Distinct, Input: 2}})
	})
}

func composerSteadyStateAllocs(t *testing.T, saggs []sketch.Agg) {
	const (
		groups    = 64
		templates = 4
	)
	queries := []attr.Set{attr.MustParseSet("AB")}
	comp, err := NewComposer(WindowSpec{Size: 4, Slide: 2}, queries, lfta.CountStar, saggs, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pane templates are safe to re-feed: keys are unique within a pane,
	// so the composer stores the agg slices and sketch blobs without
	// mutating them and drops them on evict.
	tmpl := make([][]PaneInput, templates)
	for ti := range tmpl {
		in := PaneInput{Rel: queries[0]}
		if saggs != nil {
			in.Sketches = make(map[string][]byte, groups)
		}
		for g := 0; g < groups; g++ {
			key := []uint32{uint32(g), uint32(g * 7)}
			in.Rows = append(in.Rows, Row{
				Rel:  queries[0],
				Key:  key,
				Aggs: []int64{int64(g + ti + 1)},
			})
			if saggs != nil {
				part, err := sketch.NewPartial(saggs, 10, 0)
				if err != nil {
					t.Fatal(err)
				}
				part.Observe([]uint32{key[0], key[1], uint32(g + ti)})
				in.Sketches[PackKey(key)] = part.AppendBinary(nil)
			}
		}
		tmpl[ti] = []PaneInput{in}
	}
	epoch := uint32(0)
	run := func() {
		comp.ClosePane(epoch, PaneStats{Offered: groups, Processed: groups}, tmpl[int(epoch)%templates])
		for _, res := range comp.CloseThrough(int64(epoch)) {
			comp.Recycle(res)
		}
		epoch++
	}
	// Warm the freelists: the first few ops stock the pane, accumulator,
	// and row pools.
	for i := 0; i < 16; i++ {
		run()
	}
	avg := testing.AllocsPerRun(200, run)
	// 7 per op without sketches (the blob column is empty), 8 with.
	const maxAllocs = 10
	if avg > maxAllocs {
		t.Errorf("steady-state composer op averaged %.1f allocs, want ≤ %d", avg, maxAllocs)
	}
}

// TestSnapshotPanesAllocsOnce: the checkpoint encoder reads the retained
// panes through PaneEpochs and Pane, which share the runs the composer
// built when each pane closed. Walking every pane, relation and group a
// second time, into a reused epoch list, allocates nothing.
func TestSnapshotPanesAllocsOnce(t *testing.T) {
	queries := []attr.Set{attr.MustParseSet("AB")}
	saggs := []sketch.Agg{{Kind: sketch.Distinct, Input: 2}}
	comp, err := NewComposer(WindowSpec{Size: 4, Slide: 2}, queries, lfta.CountStar, saggs, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint32(0); e < 4; e++ {
		in := PaneInput{Rel: queries[0], Sketches: map[string][]byte{}}
		for g := 0; g < 200; g++ {
			key := []uint32{uint32(g), uint32(g * 7)}
			in.Rows = append(in.Rows, Row{Rel: queries[0], Epoch: e, Key: key, Aggs: []int64{int64(g + 1)}})
			part, _ := sketch.NewPartial(saggs, 10, 0)
			part.Observe([]uint32{key[0], key[1], uint32(g) + e})
			in.Sketches[PackKey(key)] = part.AppendBinary(nil)
		}
		comp.ClosePane(e, PaneStats{Offered: 200, Processed: 200}, []PaneInput{in})
	}
	var epochs []uint32
	bytes := 0
	walk := func() {
		bytes = 0
		epochs = comp.PaneEpochs(epochs[:0])
		for _, e := range epochs {
			_, runs, _ := comp.Pane(e)
			for qi, rp := range runs {
				for g := 0; g < rp.Len(); g++ {
					bytes += 4*len(rp.Key(g, queries[qi].Size())) + 8*len(rp.Slots(g, 1)) + len(rp.Partial(g))
				}
			}
		}
	}
	walk()
	if len(epochs) != 4 || bytes == 0 {
		t.Fatalf("accessor read %d panes and %d bytes, want 4 panes × 200 groups", len(epochs), bytes)
	}
	if avg := testing.AllocsPerRun(50, walk); avg != 0 {
		t.Errorf("walking the retained panes again averaged %.1f allocs, want 0", avg)
	}
}
