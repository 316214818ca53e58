package hfta

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/hashtab"
	"repro/internal/lfta"
	"repro/internal/sketch"
	"repro/internal/stream"
)

func TestPackKeyRoundTrip(t *testing.T) {
	for _, key := range [][]uint32{{}, {0}, {7}, {1, 2}, {0xFFFFFFFF, 0, 42}, {9, 9, 9, 9, 9}} {
		got := UnpackKey(PackKey(key))
		if len(got) != len(key) {
			t.Fatalf("arity %d became %d", len(key), len(got))
		}
		for i := range key {
			if got[i] != key[i] {
				t.Fatalf("key %v round-tripped to %v", key, got)
			}
		}
	}
}

// TestOneKeyOrder: every consumer of a query's groups lists them in one
// order, numeric per attribute — the read-out (Rows, View), window rows
// of a size-1 and a 3/2 window, the window oracle, and the pane runs a
// checkpoint writes (Composer.Pane). The keys are built from values on
// which numeric order and packed little-endian byte order disagree (1
// against 256, 65536 and 1<<24) at arity 1, 2 and 3, so a consumer that
// sorted by packed bytes would list 256 before 1.
func TestOneKeyOrder(t *testing.T) {
	vals := []uint32{1, 256, 65536, 1 << 24, 0xFFFFFFFF}
	queries := []attr.Set{mergeRunRel(1), mergeRunRel(2), mergeRunRel(3)}
	aggs := []lfta.AggSpec{{Op: hashtab.Sum, Input: -1}}
	const epochLen, epochs = 10, 3
	rng := rand.New(rand.NewSource(43))
	// Every combination of three values, once per epoch, shuffled: the
	// queries project it onto 5, 25 and 125 groups.
	var recs []stream.Record
	for e := uint32(0); e < epochs; e++ {
		var ep []stream.Record
		for _, a := range vals {
			for _, b := range vals {
				for _, c := range vals {
					ep = append(ep, stream.Record{Attrs: []uint32{a, b, c}, Time: e * epochLen})
				}
			}
		}
		rng.Shuffle(len(ep), func(i, j int) { ep[i], ep[j] = ep[j], ep[i] })
		recs = append(recs, ep...)
	}
	want := map[attr.Set][][]uint32{}
	for _, q := range queries {
		seen := map[string]bool{}
		for _, r := range recs {
			if key := q.Project(r.Attrs, nil); !seen[PackKey(key)] {
				seen[PackKey(key)] = true
				want[q] = append(want[q], key)
			}
		}
		slices.SortFunc(want[q], slices.Compare)
	}
	check := func(what string, q attr.Set, got [][]uint32) {
		t.Helper()
		if !slices.EqualFunc(got, want[q], slices.Equal) {
			t.Fatalf("%s, query %v: keys %v; want %v", what, q, got, want[q])
		}
	}

	agg, err := New(queries, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		for _, q := range queries {
			agg.MergeRun(q, r.Time/epochLen, q.Project(r.Attrs, nil), []int64{1})
		}
	}
	// The panes take each epoch's rows shuffled, so the runs are sorted
	// by the composer, not inherited from the read-out.
	var inputs [epochs][]PaneInput
	for e := uint32(0); e < epochs; e++ {
		for _, q := range queries {
			var view [][]uint32
			for _, r := range agg.View(nil, q, e) {
				view = append(view, r.Key)
			}
			check(fmt.Sprintf("View, epoch %d", e), q, view)
			rows := agg.Rows(q, e)
			var keys [][]uint32
			for _, r := range rows {
				keys = append(keys, r.Key)
			}
			check(fmt.Sprintf("Rows, epoch %d", e), q, keys)
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			inputs[e] = append(inputs[e], PaneInput{Rel: q, Rows: rows})
		}
	}

	for _, win := range []WindowSpec{{Size: 1, Slide: 1}, {Size: 3, Slide: 2}} {
		c, err := NewComposer(win, queries, aggs, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for e := uint32(0); e < epochs; e++ {
			c.ClosePane(e, PaneStats{}, inputs[e])
			_, runs, _ := c.Pane(e)
			for qi, q := range queries {
				var keys [][]uint32
				for g := range runs[qi].Len() {
					keys = append(keys, runs[qi].Key(g, q.Size()))
				}
				check(fmt.Sprintf("%v pane run, epoch %d", win, e), q, keys)
			}
		}
		windowKeys := func(what string, rels []attr.Set, keys [][]uint32) {
			t.Helper()
			for _, q := range queries {
				var got [][]uint32
				for i, rel := range rels {
					if rel == q {
						got = append(got, keys[i])
					}
				}
				check(what, q, got)
			}
		}
		for _, res := range c.CloseAll() {
			var rels []attr.Set
			var keys [][]uint32
			for _, r := range res.Rows {
				rels, keys = append(rels, r.Rel), append(keys, r.Key)
			}
			windowKeys(fmt.Sprintf("%v window %d rows", win, res.Ledger.Window), rels, keys)
		}
		for _, ow := range WindowOracle(recs, queries, aggs, nil, 0, 0, epochLen, win) {
			var rels []attr.Set
			var keys [][]uint32
			for _, r := range ow.Rows {
				rels, keys = append(rels, r.Rel), append(keys, r.Key)
			}
			windowKeys(fmt.Sprintf("%v oracle window %d", win, ow.Ledger.Window), rels, keys)
		}
	}
}

// TestRestorePanesAnyOrder: RestorePanes sorts what it is given, so a
// snapshot whose rows and sketch blobs come in any order — shuffled, or
// in the packed byte order of images written before window rows took the
// read-out's numeric order — restores to the same panes, re-serializes in
// numeric order, and composes the same windows as the composer it was
// taken from.
func TestRestorePanesAnyOrder(t *testing.T) {
	queries := []attr.Set{mergeRunRel(1), mergeRunRel(2), mergeRunRel(3)}
	aggs := []lfta.AggSpec{{Op: hashtab.Sum, Input: -1}, {Op: hashtab.Max, Input: 0}}
	saggs := []sketch.Agg{{Kind: sketch.Distinct, Input: 1}}
	mk := func() *Composer {
		c, err := NewComposer(WindowSpec{Size: 3, Slide: 2}, queries, aggs, saggs, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	rng := rand.New(rand.NewSource(5))
	c := mk()
	for e := uint32(0); e < 5; e++ {
		var inputs []PaneInput
		for _, q := range queries {
			in := PaneInput{Rel: q}
			for range 20 {
				key := make([]uint32, q.Size())
				for i := range key {
					key[i] = fuzzTrapKeys[rng.Intn(len(fuzzTrapKeys))]
				}
				if rng.Intn(3) != 0 {
					in.Rows = append(in.Rows, Row{Rel: q, Epoch: e, Key: key, Aggs: []int64{1, int64(rng.Intn(100))}})
				}
				if rng.Intn(3) != 0 {
					p, _ := sketch.NewPartial(saggs, 8, 0)
					for range 1 + rng.Intn(5) {
						p.Observe([]uint32{0, rng.Uint32() % 50})
					}
					in.Blobs = append(in.Blobs, KeyBlob{Key: key, Blob: p.AppendBinary(nil)})
				}
			}
			inputs = append(inputs, in)
		}
		c.ClosePane(e, PaneStats{Offered: 20, Processed: 20}, inputs)
	}
	c.CloseThrough(2) // window 0 closes; panes 2, 3 and 4 stay
	snap, next := c.SnapshotPanes(), c.Next()
	want := c.CloseAll()
	packed := func(a, b []uint32) int { return strings.Compare(PackKey(a), PackKey(b)) }
	for _, order := range []struct {
		name    string
		reorder func(rows []Row, blobs []KeyBlob)
	}{
		{"in order", func([]Row, []KeyBlob) {}},
		{"shuffled", func(rows []Row, blobs []KeyBlob) {
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			rng.Shuffle(len(blobs), func(i, j int) { blobs[i], blobs[j] = blobs[j], blobs[i] })
		}},
		{"packed byte order", func(rows []Row, blobs []KeyBlob) {
			slices.SortFunc(rows, func(a, b Row) int { return packed(a.Key, b.Key) })
			slices.SortFunc(blobs, func(a, b KeyBlob) int { return packed(a.Key, b.Key) })
		}},
	} {
		var in []PaneSnapshot
		for _, ps := range snap {
			ps.Rels = slices.Clone(ps.Rels)
			for i := range ps.Rels {
				rs := &ps.Rels[i]
				rs.Rows, rs.Sketches = slices.Clone(rs.Rows), slices.Clone(rs.Sketches)
				order.reorder(rs.Rows, rs.Sketches)
			}
			in = append(in, ps)
		}
		r := mk()
		if err := r.RestorePanes(next, in); err != nil {
			t.Fatalf("%s: %v", order.name, err)
		}
		if !reflect.DeepEqual(r.SnapshotPanes(), snap) {
			t.Fatalf("%s: restored panes re-serialize out of numeric order", order.name)
		}
		if got := r.CloseAll(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: restored composer closes\n%v\nwant\n%v", order.name, got, want)
		}
	}
}

// feedPanes drives a composer the way the engine does — one pane per
// observed epoch, exact rows via per-epoch grouping, sketch partials per
// group — and returns everything emitted (steady closes plus CloseAll).
func feedPanes(t *testing.T, c *Composer, recs []stream.Record, queries []attr.Set, aggs []lfta.AggSpec, saggs []sketch.Agg, epochLen uint32) []WindowResult {
	t.Helper()
	clock := &stream.Clock{Length: epochLen}
	type gstate struct {
		rows map[string][]int64
		sk   map[string]*sketch.Partial
	}
	cur := map[attr.Set]*gstate{}
	var stats PaneStats
	var results []WindowResult
	var keyBuf []uint32

	closeEpoch := func(epoch uint32) {
		var inputs []PaneInput
		for _, q := range queries {
			gs := cur[q]
			if gs == nil {
				continue
			}
			in := PaneInput{Rel: q, Sketches: map[string][]byte{}}
			for k, slots := range gs.rows {
				in.Rows = append(in.Rows, Row{Rel: q, Epoch: epoch, Key: UnpackKey(k), Aggs: slots})
			}
			for k, p := range gs.sk {
				in.Sketches[k] = p.AppendBinary(nil)
			}
			inputs = append(inputs, in)
		}
		c.ClosePane(epoch, stats, inputs)
		cur = map[attr.Set]*gstate{}
		stats = PaneStats{}
		_, now, _ := clock.Snapshot()
		if now > epoch {
			results = append(results, c.CloseThrough(int64(now)-1)...)
		}
	}

	for _, rec := range recs {
		_, prev, _ := clock.Snapshot()
		started := clockStarted(clock)
		_, rolled, late := clock.Observe(rec.Time)
		if started && rolled {
			closeEpoch(prev)
		}
		stats.Offered++
		if late {
			stats.Late++
			continue
		}
		stats.Processed++
		for _, q := range queries {
			gs := cur[q]
			if gs == nil {
				gs = &gstate{rows: map[string][]int64{}, sk: map[string]*sketch.Partial{}}
				cur[q] = gs
			}
			keyBuf = q.Project(rec.Attrs, keyBuf)
			k := PackKey(keyBuf)
			slots := gs.rows[k]
			if slots == nil {
				slots = identities(aggs)
				gs.rows[k] = slots
			}
			for j, spec := range aggs {
				d := int64(1)
				if spec.Input >= 0 {
					d = int64(rec.Attrs[spec.Input])
				}
				slots[j] = spec.Op.Combine(slots[j], d)
			}
			if len(saggs) > 0 {
				p := gs.sk[k]
				if p == nil {
					p, _ = sketch.NewPartial(saggs, 0, 0)
					gs.sk[k] = p
				}
				p.Observe(rec.Attrs)
			}
		}
	}
	if clockStarted(clock) {
		_, now, _ := clock.Snapshot()
		closeEpoch(now)
	}
	results = append(results, c.CloseAll()...)
	return results
}

func clockStarted(c *stream.Clock) bool {
	started, _, _ := c.Snapshot()
	return started
}

func windowRecords(seed int64, n int, maxTime uint32) []stream.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]stream.Record, n)
	t := uint32(0)
	for i := range recs {
		if rng.Intn(4) == 0 {
			t += uint32(rng.Intn(7))
		}
		if rng.Intn(50) == 0 {
			t += uint32(rng.Intn(40)) // epoch gaps
		}
		if t > maxTime {
			t = maxTime
		}
		at := t
		if rng.Intn(20) == 0 && at > 25 {
			at -= uint32(rng.Intn(25)) // regressions, some crossing epochs
		}
		recs[i] = stream.Record{
			Attrs: []uint32{uint32(rng.Intn(4)), uint32(rng.Intn(1000)), uint32(rng.Intn(5000)), uint32(rng.Intn(3))},
			Time:  at,
		}
	}
	return recs
}

// TestComposerMatchesOracle drives the composer pane-by-pane over a
// (size, slide) grid and checks every emitted window — ledger, exact
// rows, HLL estimates — equals the brute-force recompute. T-digest
// estimates are checked by rank error against the exact value sets.
func TestComposerMatchesOracle(t *testing.T) {
	queries := []attr.Set{attr.MustParseSet("A"), attr.MustParseSet("AD")}
	aggs := []lfta.AggSpec{
		{Op: hashtab.Sum, Input: -1},
		{Op: hashtab.Sum, Input: 1},
		{Op: hashtab.Min, Input: 2},
		{Op: hashtab.Max, Input: 2},
	}
	saggs := []sketch.Agg{
		{Kind: sketch.Distinct, Input: 1},
		{Kind: sketch.Quantile, Input: 2, Q: 0.5},
		{Kind: sketch.Quantile, Input: 2, Q: 0.95},
	}
	const epochLen = 10
	grid := []WindowSpec{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {4, 4}, {2, 3}}
	for _, win := range grid {
		recs := windowRecords(int64(win.Size)*100+int64(win.Slide), 6000, 400)
		c, err := NewComposer(win, queries, aggs, saggs, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := feedPanes(t, c, recs, queries, aggs, saggs, epochLen)
		want := WindowOracle(recs, queries, aggs, saggs, 0, 0, epochLen, win)
		compareWindows(t, win, got, want)
		if c.PaneCount() != 0 {
			t.Errorf("win %v: %d panes left after CloseAll", win, c.PaneCount())
		}
	}
}

func compareWindows(t *testing.T, win WindowSpec, got []WindowResult, want []OracleWindow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("win %v: %d windows, oracle has %d", win, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Ledger != w.Ledger {
			t.Fatalf("win %v window %d: ledger %+v, oracle %+v", win, i, g.Ledger, w.Ledger)
		}
		if st := g.Ledger.Stats; st.Offered != st.Processed+st.Dropped+st.Late {
			t.Fatalf("win %v window %d: ledger identity broken: %+v", win, i, st)
		}
		if len(g.Rows) != len(w.Rows) {
			t.Fatalf("win %v window %d: %d rows, oracle %d", win, i, len(g.Rows), len(w.Rows))
		}
		for j := range g.Rows {
			gr, wr := g.Rows[j], w.Rows[j]
			if gr.Rel != wr.Rel || gr.Window != wr.Window || gr.Start != wr.Start || gr.End != wr.End ||
				!reflect.DeepEqual(gr.Key, wr.Key) || !reflect.DeepEqual(gr.Aggs, wr.Aggs) {
				t.Fatalf("win %v window %d row %d:\n got %+v\nwant %+v", win, i, j, gr, wr)
			}
			for s := range gr.Sketch {
				if wr.ExactDistinct[s] >= 0 {
					// HLL: pane-merged must equal direct-fed bitwise.
					if gr.Sketch[s] != wr.Sketch[s] {
						t.Fatalf("win %v window %d row %d sketch %d: %v != oracle %v", win, i, j, s, gr.Sketch[s], wr.Sketch[s])
					}
					continue
				}
				// t-digest: engine estimate must sit within rank
				// tolerance of the exact value set.
				assertRank(t, wr.Values[s], gr.Sketch[s], 0.5, 0.95, s)
			}
		}
	}
}

// assertRank checks est's rank in vals is within tolerance of one of the
// candidate quantiles (the test carries two quantile aggs; slot s picks
// which).
func assertRank(t *testing.T, vals []float64, est float64, q50, q95 float64, slot int) {
	t.Helper()
	if len(vals) == 0 {
		return
	}
	q := q50
	if slot == 2 {
		q = q95
	}
	n := float64(len(vals))
	// The estimate covers a rank interval [lo, hi] when the data holds
	// duplicates: lo = fraction strictly below, hi = fraction ≤ est.
	lo := float64(sort.SearchFloat64s(vals, est)) / n
	hi := float64(sort.Search(len(vals), func(i int) bool { return vals[i] > est })) / n
	// Small windows hold few values, where rank granularity dominates:
	// allow 0.08 + one value's worth of slack.
	tol := 0.08 + 1.0/n
	if q < lo-tol || q > hi+tol {
		t.Fatalf("quantile slot %d: estimate %v covers ranks [%.3f, %.3f], want %.2f ± %.3f (n=%d)", slot, est, lo, hi, q, tol, len(vals))
	}
}

// TestComposerEviction pins the ring bound: after each CloseThrough the
// composer retains no pane older than the oldest live window.
func TestComposerEviction(t *testing.T) {
	queries := []attr.Set{attr.MustParseSet("A")}
	aggs := []lfta.AggSpec{{Op: hashtab.Sum, Input: -1}}
	c, err := NewComposer(WindowSpec{Size: 3, Slide: 2}, queries, aggs, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint32(0); e < 100; e++ {
		c.ClosePane(e, PaneStats{Offered: 1, Processed: 1}, []PaneInput{{
			Rel:  queries[0],
			Rows: []Row{{Rel: queries[0], Epoch: e, Key: []uint32{1}, Aggs: []int64{1}}},
		}})
		c.CloseThrough(int64(e)) // epoch e is final once e+1 starts; harmless here
		for _, ps := range c.SnapshotPanes() {
			if int64(ps.Epoch) < c.Next()*2 {
				t.Fatalf("epoch %d: pane %d survived past live window %d", e, ps.Epoch, c.Next())
			}
		}
		if c.PaneCount() > 4 {
			t.Fatalf("epoch %d: %d panes retained, want ≤ 4", e, c.PaneCount())
		}
	}
}

// TestComposerGapFastForward: a clock jump of ~2^31 epochs must not
// spin per-window, and windows resume correctly after the gap.
func TestComposerGapFastForward(t *testing.T) {
	queries := []attr.Set{attr.MustParseSet("A")}
	aggs := []lfta.AggSpec{{Op: hashtab.Sum, Input: -1}}
	c, err := NewComposer(WindowSpec{Size: 4, Slide: 1}, queries, aggs, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	row := func(e uint32) []PaneInput {
		return []PaneInput{{Rel: queries[0], Rows: []Row{{Rel: queries[0], Epoch: e, Key: []uint32{1}, Aggs: []int64{1}}}}}
	}
	c.ClosePane(5, PaneStats{Offered: 1, Processed: 1}, row(5))
	const far = 1 << 31
	got := c.CloseThrough(far - 1) // a giant jump: everything through epoch far-1 is final
	// Windows overlapping pane 5: indices 2..5 (size 4, slide 1).
	if len(got) != 4 {
		t.Fatalf("%d windows after jump, want 4", len(got))
	}
	for i, r := range got {
		if r.Ledger.Window != uint32(2+i) || r.Ledger.Stats.Processed != 1 {
			t.Fatalf("window %d: %+v", i, r.Ledger)
		}
	}
	if c.PaneCount() != 0 {
		t.Fatalf("%d panes left after jump", c.PaneCount())
	}
	c.ClosePane(far, PaneStats{Offered: 2, Processed: 2}, row(far))
	got = c.CloseAll()
	if len(got) != 4 {
		t.Fatalf("%d windows after gap, want 4", len(got))
	}
	if got[0].Ledger.Start != far-3 || got[3].Ledger.Start != far {
		t.Fatalf("windows after gap span %d..%d", got[0].Ledger.Start, got[3].Ledger.Start)
	}
}

// TestComposerSnapshotRoundTrip: snapshot → restore → snapshot must be
// deeply identical, including sketch blobs byte-for-byte, and a restored
// composer must close the same windows.
func TestComposerSnapshotRoundTrip(t *testing.T) {
	queries := []attr.Set{attr.MustParseSet("A"), attr.MustParseSet("AB")}
	aggs := []lfta.AggSpec{{Op: hashtab.Sum, Input: -1}, {Op: hashtab.Max, Input: 2}}
	saggs := []sketch.Agg{{Kind: sketch.Distinct, Input: 1}, {Kind: sketch.Quantile, Input: 2, Q: 0.9}}
	mk := func() *Composer {
		c, err := NewComposer(WindowSpec{Size: 3, Slide: 1}, queries, aggs, saggs, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := mk()
	rng := rand.New(rand.NewSource(21))
	for e := uint32(0); e < 6; e++ {
		var inputs []PaneInput
		for _, q := range queries {
			in := PaneInput{Rel: q, Sketches: map[string][]byte{}}
			for g := 0; g < 3; g++ {
				key := make([]uint32, q.Size())
				for i := range key {
					key[i] = uint32(g)
				}
				in.Rows = append(in.Rows, Row{Rel: q, Epoch: e, Key: key, Aggs: []int64{int64(rng.Intn(50)), int64(rng.Intn(100))}})
				p, _ := sketch.NewPartial(saggs, 0, 0)
				for n := 0; n < 30; n++ {
					p.Observe([]uint32{uint32(g), rng.Uint32() % 40, rng.Uint32() % 500})
				}
				in.Sketches[PackKey(key)] = p.AppendBinary(nil)
			}
			inputs = append(inputs, in)
		}
		c.ClosePane(e, PaneStats{Offered: 10, Processed: 9, Late: 1}, inputs)
	}
	c.CloseThrough(3) // advance next, evict some panes

	snap := c.SnapshotPanes()
	next := c.Next()
	r := mk()
	if err := r.RestorePanes(next, snap); err != nil {
		t.Fatal(err)
	}
	snap2 := r.SnapshotPanes()
	if !reflect.DeepEqual(snap, snap2) {
		t.Fatal("snapshot changed across restore")
	}
	for i := range snap {
		for j := range snap[i].Rels {
			for k := range snap[i].Rels[j].Sketches {
				if !bytes.Equal(snap[i].Rels[j].Sketches[k].Blob, snap2[i].Rels[j].Sketches[k].Blob) {
					t.Fatal("sketch blob not byte-identical across restore")
				}
			}
		}
	}
	a, b := c.CloseAll(), r.CloseAll()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("restored composer closed different windows")
	}

	// Corrupt restores must be rejected.
	bad := mk()
	if err := bad.RestorePanes(-1, nil); err == nil {
		t.Fatal("negative next accepted")
	}
	if err := bad.RestorePanes(10, snap); err == nil {
		t.Fatal("panes preceding the live window accepted")
	}
	if len(snap) > 0 && len(snap[0].Rels) > 0 && len(snap[0].Rels[0].Sketches) > 0 {
		mangled := make([]PaneSnapshot, len(snap))
		copy(mangled, snap)
		kb := mangled[0].Rels[0].Sketches[0]
		kb.Blob = kb.Blob[:len(kb.Blob)-3]
		rels := make([]PaneRelSnapshot, len(mangled[0].Rels))
		copy(rels, mangled[0].Rels)
		sks := append([]KeyBlob(nil), rels[0].Sketches...)
		sks[0] = kb
		rels[0].Sketches = sks
		mangled[0].Rels = rels
		if err := mk().RestorePanes(next, mangled); err == nil {
			t.Fatal("truncated sketch blob accepted")
		}
	}
}

func TestNewComposerValidation(t *testing.T) {
	q := []attr.Set{attr.MustParseSet("A")}
	aggs := []lfta.AggSpec{{Op: hashtab.Sum, Input: -1}}
	if _, err := NewComposer(WindowSpec{Size: 0, Slide: 1}, q, aggs, nil, 0, 0); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := NewComposer(WindowSpec{Size: 1, Slide: 0}, q, aggs, nil, 0, 0); err == nil {
		t.Fatal("slide 0 accepted")
	}
	if _, err := NewComposer(WindowSpec{Size: 1, Slide: 1}, nil, aggs, nil, 0, 0); err == nil {
		t.Fatal("no queries accepted")
	}
	if _, err := NewComposer(WindowSpec{Size: 1, Slide: 1}, q, aggs, []sketch.Agg{{Kind: 99}}, 0, 0); err == nil {
		t.Fatal("bad sketch kind accepted")
	}
}

// TestComposerRefeedLeavesInputUntouched: ClosePane keeps each row's Aggs
// by reference, and the engine shares those rows with result handlers and
// the persister. Feeding the same epoch's pane again folds the two feeds
// together; the fold must land in the composer's own copy, never in the
// first feed's rows.
func TestComposerRefeedLeavesInputUntouched(t *testing.T) {
	queries := []attr.Set{attr.MustParseSet("A")}
	aggs := []lfta.AggSpec{{Op: hashtab.Sum, Input: -1}, {Op: hashtab.Max, Input: 0}}
	c, err := NewComposer(WindowSpec{Size: 1, Slide: 1}, queries, aggs, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(sum, max int64) []Row {
		rows := []Row{
			{Rel: queries[0], Epoch: 3, Key: []uint32{1}, Aggs: []int64{sum, max}},
			{Rel: queries[0], Epoch: 3, Key: []uint32{2}, Aggs: []int64{sum + 1, max + 1}},
		}
		c.ClosePane(3, PaneStats{Offered: 2, Processed: 2}, []PaneInput{{Rel: queries[0], Rows: rows}})
		return rows
	}
	first := feed(10, 100)
	second := feed(5, 300)
	third := feed(1, 200)
	for i, want := range [][2][]int64{{{10, 100}, {11, 101}}, {{5, 300}, {6, 301}}, {{1, 200}, {2, 201}}} {
		got := [][]Row{first, second, third}[i]
		if !slices.Equal(got[0].Aggs, want[0]) || !slices.Equal(got[1].Aggs, want[1]) {
			t.Errorf("feed %d's rows were rewritten: %v %v; want %v", i, got[0].Aggs, got[1].Aggs, want)
		}
	}
	res := c.CloseThrough(3)
	if len(res) != 1 || len(res[0].Rows) != 2 {
		t.Fatalf("closed %+v; want one window of two rows", res)
	}
	if got := res[0].Rows[0].Aggs; !slices.Equal(got, []int64{16, 300}) {
		t.Errorf("group 1 composed to %v; want [16 300]", got)
	}
	if got := res[0].Rows[1].Aggs; !slices.Equal(got, []int64{19, 301}) {
		t.Errorf("group 2 composed to %v; want [19 301]", got)
	}
}

// SnapshotPanes reads the retained panes out through the run accessor
// the checkpoint encoder uses (PaneEpochs, Pane): ascending epoch,
// relations in query order, rows and sketch blobs in run order. It is the
// form RestorePanes takes, so the round-trip tests compare through it.
func (c *Composer) SnapshotPanes() []PaneSnapshot {
	var out []PaneSnapshot
	for _, e := range c.PaneEpochs(nil) {
		stats, runs, _ := c.Pane(e)
		ps := PaneSnapshot{Epoch: e, Stats: stats}
		for qi, rp := range runs {
			if rp == nil {
				continue
			}
			q := c.queries[qi]
			rs := PaneRelSnapshot{Rel: q}
			for g := 0; g < rp.Len(); g++ {
				key := rp.Key(g, q.Size())
				if rp.HasRow(g) {
					rs.Rows = append(rs.Rows, Row{Rel: q, Epoch: e, Key: key, Aggs: rp.Slots(g, len(c.aggs))})
				}
				if rp.HasSketch(g) {
					rs.Sketches = append(rs.Sketches, KeyBlob{Key: key, Blob: rp.Partial(g)})
				}
			}
			ps.Rels = append(ps.Rels, rs)
		}
		out = append(out, ps)
	}
	return out
}

// TestSnapshotPanesCacheInvalidation: everything that changes a pane —
// the same epoch fed again, eviction and a later epoch, Reset and
// RestorePanes — must show in its read-out. (The composer once cached
// each pane's read-out, which all of these had to drop.) One composer is
func TestSnapshotPanesCacheInvalidation(t *testing.T) {
	queries := []attr.Set{attr.MustParseSet("A"), attr.MustParseSet("AB")}
	aggs := []lfta.AggSpec{{Op: hashtab.Sum, Input: -1}}
	saggs := []sketch.Agg{{Kind: sketch.Distinct, Input: 1}}
	mk := func() *Composer {
		c, err := NewComposer(WindowSpec{Size: 4, Slide: 2}, queries, aggs, saggs, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// One feed of an epoch: groups lo..hi-1 of every query, values drawn
	// from seed so that a second feed of the epoch differs from the first.
	input := func(e uint32, lo, hi int, seed int64) []PaneInput {
		rng := rand.New(rand.NewSource(seed))
		var inputs []PaneInput
		for _, q := range queries {
			in := PaneInput{Rel: q, Sketches: map[string][]byte{}}
			for g := lo; g < hi; g++ {
				key := make([]uint32, q.Size())
				for i := range key {
					key[i] = uint32(100 - g)
				}
				in.Rows = append(in.Rows, Row{Rel: q, Epoch: e, Key: key, Aggs: []int64{int64(1 + rng.Intn(50))}})
				p, _ := sketch.NewPartial(saggs, 10, 0)
				for n := 0; n < 3; n++ {
					p.Observe([]uint32{uint32(g), rng.Uint32() % 40})
				}
				in.Sketches[PackKey(key)] = p.AppendBinary(nil)
			}
			inputs = append(inputs, in)
		}
		return inputs
	}
	eager := mk()
	var steps []func(c *Composer)
	do := func(f func(c *Composer)) {
		steps = append(steps, f)
		f(eager)
		eager.SnapshotPanes()
	}
	same := func(step string) {
		t.Helper()
		fresh := mk() // never snapshotted until now: nothing cached to go stale
		for _, f := range steps {
			f(fresh)
		}
		got, want := eager.SnapshotPanes(), fresh.SnapshotPanes()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the composer snapshotted at every step reads out stale panes", step)
		}
		restored := mk()
		if err := restored.RestorePanes(fresh.Next(), want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(restored.SnapshotPanes(), got) {
			t.Fatalf("%s: snapshot differs from a restored composer's", step)
		}
	}
	for e := uint32(0); e < 3; e++ {
		do(func(c *Composer) { c.ClosePane(e, PaneStats{Offered: 5, Processed: 5}, input(e, 0, 4, int64(e))) })
	}
	same("three panes")
	do(func(c *Composer) { c.ClosePane(1, PaneStats{Offered: 3, Processed: 2, Late: 1}, input(1, 2, 6, 99)) })
	same("epoch 1 fed again")
	do(func(c *Composer) { c.CloseThrough(3) }) // closes window 0, evicts panes 0 and 1 into the pool
	do(func(c *Composer) { c.ClosePane(4, PaneStats{Offered: 1, Processed: 1}, input(4, 7, 9, 4)) })
	same("pooled pane reused for epoch 4")
	do(func(c *Composer) { c.Reset() })
	do(func(c *Composer) { c.ClosePane(0, PaneStats{Offered: 2, Processed: 2}, input(0, 1, 2, 5)) })
	same("after Reset")
	do(func(c *Composer) {
		if err := c.RestorePanes(c.Next(), nil); err != nil {
			t.Fatal(err)
		}
	})
	same("after RestorePanes")
}
