package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/attr"
	"repro/internal/gen"
	"repro/internal/hfta"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// windowSQL builds the windowed workload: two queries differing only in
// grouping, each carrying exact aggregates plus all three sketch kinds.
func windowSQL(size, slide uint32) []string {
	const aggs = "count(*) as cnt, sum(C) as sc, max(D) as mx, " +
		"count_distinct(D) as uniq, median(C), percentile(C, 90) as p90"
	w := fmt.Sprintf("window %d slide %d", size, slide)
	return []string{
		fmt.Sprintf("select A, B, %s from R group by A, B, time/10 %s", aggs, w),
		fmt.Sprintf("select B, C, %s from R group by B, C, time/10 %s", aggs, w),
	}
}

// runWindowed builds a windowed engine from the workload SQL, runs the
// record slice through it, and returns it finished.
func runWindowed(t *testing.T, sqls []string, recs []stream.Record, opts Options) *Engine {
	t.Helper()
	e, err := NewFromSample(sqls, recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Windowed() {
		t.Fatal("windowed workload built a tumbling engine")
	}
	if err := e.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	return e
}

// assertRankIn checks est's rank within the exact sorted value set is
// within tolerance of quantile q (duplicates give the estimate a rank
// interval, not a point).
func assertRankIn(t *testing.T, vals []float64, est, q float64, ctx string) {
	t.Helper()
	if len(vals) == 0 {
		return
	}
	n := float64(len(vals))
	lo := float64(sort.SearchFloat64s(vals, est)) / n
	hi := float64(sort.Search(len(vals), func(i int) bool { return vals[i] > est })) / n
	tol := 0.08 + 1.0/n
	if q < lo-tol || q > hi+tol {
		t.Fatalf("%s: estimate %v covers ranks [%.3f, %.3f], want %.2f ± %.3f (n=%d)",
			ctx, est, lo, hi, q, tol, len(vals))
	}
}

// compareEngineToOracle checks the engine's closed windows — ledgers and
// rows — against the brute-force oracle: exact slots and HLL estimates
// bitwise, t-digest estimates by rank error against the exact value set.
func compareEngineToOracle(t *testing.T, e *Engine, want []hfta.OracleWindow) {
	t.Helper()
	leds := e.WindowLedgers()
	if len(leds) != len(want) {
		t.Fatalf("engine closed %d windows, oracle has %d", len(leds), len(want))
	}
	rows := e.WindowResults()
	used := 0
	for i, ow := range want {
		if leds[i] != ow.Ledger {
			t.Fatalf("window %d: ledger %+v, oracle %+v", i, leds[i], ow.Ledger)
		}
		if st := leds[i].Stats; st.Offered != st.Processed+st.Dropped+st.Late {
			t.Fatalf("window %d: ledger identity broken: %+v", i, st)
		}
		var grows []hfta.WindowRow
		for _, r := range rows {
			if r.Window == ow.Ledger.Window {
				grows = append(grows, r)
			}
		}
		used += len(grows)
		if len(grows) != len(ow.Rows) {
			t.Fatalf("window %d: engine has %d rows, oracle %d", i, len(grows), len(ow.Rows))
		}
		for j := range grows {
			gr, wr := grows[j], ow.Rows[j]
			if gr.Rel != wr.Rel || gr.Window != wr.Window || gr.Start != wr.Start || gr.End != wr.End ||
				!reflect.DeepEqual(gr.Key, wr.Key) || !reflect.DeepEqual(gr.Aggs, wr.Aggs) {
				t.Fatalf("window %d row %d:\n got %+v\nwant %+v", i, j, gr, wr)
			}
			for s := range gr.Sketch {
				if wr.ExactDistinct[s] >= 0 {
					// HLL merging is exactly associative: pane-composed
					// must equal the oracle's direct feed bitwise.
					if gr.Sketch[s] != wr.Sketch[s] {
						t.Fatalf("window %d row %d sketch %d: %v != oracle %v",
							i, j, s, gr.Sketch[s], wr.Sketch[s])
					}
					continue
				}
				assertRankIn(t, wr.Values[s], gr.Sketch[s], e.sketchAggs[s].Q,
					fmt.Sprintf("window %d row %d slot %d", i, j, s))
			}
		}
	}
	if used != len(rows) {
		t.Fatalf("%d engine window rows not matched to any oracle window", len(rows)-used)
	}
}

// TestWindowedOracleGrid is the headline property: pane-composed sliding
// windows are equivalent to brute-force recomputation across a grid of
// (size, slide) geometries — overlapping, tumbling, and sampled — on a
// clean stream and on a chaotic one with timestamp regressions.
func TestWindowedOracleGrid(t *testing.T) {
	recs, _ := testWorkload(t, 30000)
	chaotic, err := stream.Collect(stream.NewChaosSource(stream.NewSliceSource(recs), stream.ChaosOptions{
		Seed: 11, RegressEvery: 40, RegressBy: 15,
	}))
	if err != nil {
		t.Fatal(err)
	}
	streams := []struct {
		name string
		in   []stream.Record
	}{{"clean", recs}, {"chaos", chaotic}}
	grid := []hfta.WindowSpec{
		{Size: 1, Slide: 1}, // tumbling
		{Size: 3, Slide: 2}, // overlapping
		{Size: 4, Slide: 2}, // size a multiple of slide
		{Size: 2, Slide: 3}, // sampled: epochs skipped between windows
		{Size: 5, Slide: 5}, // coarse tumbling
	}
	for _, st := range streams {
		for _, win := range grid {
			t.Run(fmt.Sprintf("%s/size=%d,slide=%d", st.name, win.Size, win.Slide), func(t *testing.T) {
				e := runWindowed(t, windowSQL(win.Size, win.Slide), st.in, Options{M: 8000, Seed: 3})
				want := hfta.WindowOracle(st.in, e.queries, e.aggs, e.sketchAggs, 0, 0, e.epochLen, win)
				compareEngineToOracle(t, e, want)
			})
		}
	}
}

// TestWindowedShardEquivalence: sketch accumulation runs on the
// single-threaded admission path, so windowed results — including sketch
// estimates — are bitwise identical across shard counts, and all equal
// the oracle (satellite of the shard-equivalence suite).
func TestWindowedShardEquivalence(t *testing.T) {
	recs, _ := testWorkload(t, 30000)
	sqls := windowSQL(4, 2)
	var base *Engine
	for _, shards := range []int{0, 2, 4, 8} {
		e := runWindowed(t, sqls, recs, Options{M: 8000, Seed: 3, Shards: shards})
		if base == nil {
			base = e
			want := hfta.WindowOracle(recs, e.queries, e.aggs, e.sketchAggs, 0, 0, e.epochLen, hfta.WindowSpec{Size: 4, Slide: 2})
			compareEngineToOracle(t, e, want)
			continue
		}
		if !reflect.DeepEqual(e.WindowLedgers(), base.WindowLedgers()) {
			t.Fatalf("shards=%d: window ledgers differ from single deployment", shards)
		}
		if !reflect.DeepEqual(e.WindowResults(), base.WindowResults()) {
			t.Fatalf("shards=%d: windowed rows differ from single deployment", shards)
		}
	}
}

// TestWindowedKillRestore: kill the engine mid-window, restore from the
// checkpoint log, and finish — the full window output matches the
// uninterrupted run, and the restored engine re-serializes the image the
// killed engine checkpointed at its last boundary byte-identically (panes
// and sketch blobs carried verbatim).
func TestWindowedKillRestore(t *testing.T) {
	recs, _ := testWorkload(t, 30000)
	sqls := windowSQL(3, 2)
	opts := Options{M: 8000, Seed: 3}

	ref := runWindowed(t, sqls, recs, opts)
	wantLeds, wantRows := ref.WindowLedgers(), ref.WindowResults()
	if len(wantLeds) == 0 {
		t.Fatal("reference run closed no windows")
	}

	ckpt := filepath.Join(t.TempDir(), "win.ckpt")
	copts := opts
	copts.CheckpointPath = ckpt
	e1, err := NewFromSample(sqls, recs, copts)
	if err != nil {
		t.Fatal(err)
	}
	const crashAt = 17000
	var boundary bytes.Buffer // the killed engine's image at its last boundary
	feedBoundaries(t, e1, recs[:crashAt], nil, func() {
		boundary.Reset()
		if err := e1.Checkpoint(&boundary); err != nil {
			t.Fatal(err)
		}
	})
	if e1.Stats().Epochs == 0 {
		t.Fatal("crash point never crossed an epoch boundary")
	}
	img, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if img[4] != ckptVersion {
		t.Fatalf("windowed image version = %d; want %d", img[4], ckptVersion)
	}

	e2, err := NewFromSample(sqls, recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	consumed, err := e2.Restore(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if e2.winComposer.PaneCount() == 0 && e2.winComposer.Next() == 0 && len(e2.WindowLedgers()) == 0 {
		t.Fatal("restore carried no window state; the kill point is vacuous")
	}
	// Byte identity before any further input: restore → checkpoint must
	// reproduce the boundary's image exactly.
	var buf bytes.Buffer
	if err := e2.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), boundary.Bytes()) {
		t.Fatal("restored engine does not re-serialize the windowed image byte-identically")
	}
	if err := e2.Run(stream.NewSkipSource(stream.NewSliceSource(recs), consumed)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e2.WindowLedgers(), wantLeds) {
		t.Fatal("restored run's window ledgers differ from the uninterrupted run")
	}
	if !reflect.DeepEqual(e2.WindowResults(), wantRows) {
		t.Fatal("restored run's windowed rows differ from the uninterrupted run")
	}
}

// TestChaosWindowLedger: timestamp regressions crossing a pane boundary
// count as Late in the window ledger, and every window's ledger obeys
// Offered == Processed + Dropped + Late. With tumbling windows each
// observed epoch lands in exactly one window, so the ledgers also sum to
// the engine's global degradation ledger.
func TestChaosWindowLedger(t *testing.T) {
	recs, _ := testWorkload(t, 30000)
	chaotic, err := stream.Collect(stream.NewChaosSource(stream.NewSliceSource(recs), stream.ChaosOptions{
		Seed: 7, RegressEvery: 25, RegressBy: 30,
	}))
	if err != nil {
		t.Fatal(err)
	}
	e := runWindowed(t, windowSQL(2, 2), chaotic, Options{M: 8000, Seed: 3})
	total := e.Stats().Degradation
	if total.Late == 0 {
		t.Fatal("chaos stream produced no late records; the ledger check is vacuous")
	}
	var sum hfta.PaneStats
	for _, l := range e.WindowLedgers() {
		if l.Stats.Offered != l.Stats.Processed+l.Stats.Dropped+l.Stats.Late {
			t.Fatalf("window %d ledger identity broken: %+v", l.Window, l.Stats)
		}
		sum.Offered += l.Stats.Offered
		sum.Processed += l.Stats.Processed
		sum.Dropped += l.Stats.Dropped
		sum.Late += l.Stats.Late
	}
	if sum.Offered != total.Offered || sum.Processed != total.Processed ||
		sum.Dropped != total.Dropped || sum.Late != total.Late {
		t.Fatalf("tumbling window ledgers sum to %+v; engine ledger %+v", sum, total)
	}
	diag, err := e.Diagnostics()
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Windows) != len(e.WindowLedgers()) {
		t.Fatalf("Diagnostics carries %d window ledgers; engine closed %d", len(diag.Windows), len(e.WindowLedgers()))
	}
	if diag.RetainedPanes != 0 {
		t.Fatalf("finished engine retains %d panes; want 0", diag.RetainedPanes)
	}
}

// TestLateFirstRecordOpensLedger pins the boundary fix: a late record
// arriving as the first record of its accounting epoch (possible right
// after a restore, before any on-time record) must open the ledger so
// its pane still closes — otherwise the window ledgers would lose it and
// the Offered identity would break.
func TestLateFirstRecordOpensLedger(t *testing.T) {
	recs, _ := testWorkload(t, 30000)
	sqls := windowSQL(1, 1)
	opts := Options{M: 8000, Seed: 3}
	ckpt := filepath.Join(t.TempDir(), "late.ckpt")
	copts := opts
	copts.CheckpointPath = ckpt
	e1, err := NewFromSample(sqls, recs, copts)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedAll(e1, recs[:17000]); err != nil {
		t.Fatal(err)
	}
	e2, err := NewFromSample(sqls, recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.RestoreCheckpointFile(ckpt); err != nil {
		t.Fatal(err)
	}
	_, cur, _ := e2.clock.Snapshot()
	if cur == 0 {
		t.Fatal("restored clock at epoch 0; late-first scenario needs progress")
	}
	before := uint64(0)
	for _, l := range e2.WindowLedgers() {
		before += l.Stats.Late
	}
	// The only post-restore record is late: a timestamp from epoch 0.
	lateRec := recs[0]
	lateRec.Time = 0
	if err := feedOne(e2, lateRec); err != nil {
		t.Fatal(err)
	}
	if err := e2.Finish(); err != nil {
		t.Fatal(err)
	}
	hist := e2.EpochDegradations()
	last := hist[len(hist)-1]
	if last.Epoch != cur || last.Offered != 1 || last.Late != 1 {
		t.Fatalf("trailing ledger %+v; want epoch %d with 1 offered, 1 late", last, cur)
	}
	var after uint64
	for _, l := range e2.WindowLedgers() {
		after += l.Stats.Late
	}
	if after != before+1 {
		t.Fatalf("window ledgers count %d late records; want %d (the trailing late must reach a pane)", after, before+1)
	}
}

// TestWindowedHaving: HAVING applies to the composed window aggregates
// at window close, not to per-pane values.
func TestWindowedHaving(t *testing.T) {
	recs, _ := testWorkload(t, 30000)
	plain := windowSQL(3, 2)
	const threshold = 40
	having := make([]string, len(plain))
	for i, s := range plain {
		having[i] = s + fmt.Sprintf(" having cnt > %d", threshold)
	}
	all := runWindowed(t, plain, recs, Options{M: 8000, Seed: 3})
	filtered := runWindowed(t, having, recs, Options{M: 8000, Seed: 3})
	if !reflect.DeepEqual(all.WindowLedgers(), filtered.WindowLedgers()) {
		t.Fatal("HAVING changed the window ledgers; it must only filter rows")
	}
	var want []hfta.WindowRow
	for _, r := range all.WindowResults() {
		if r.Aggs[0] > threshold {
			want = append(want, r)
		}
	}
	got := filtered.WindowResults()
	if len(want) == len(all.WindowResults()) || len(want) == 0 {
		t.Fatalf("threshold %d filters nothing or everything (%d of %d); vacuous", threshold, len(want), len(all.WindowResults()))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HAVING kept %d rows; manual filter keeps %d", len(got), len(want))
	}
}

// TestWindowHandlerStreams: with an OnWindow handler installed, windows
// stream out (HAVING applied) instead of accumulating, matching the
// retained rows of a handlerless run.
func TestWindowHandlerStreams(t *testing.T) {
	recs, _ := testWorkload(t, 30000)
	sqls := windowSQL(3, 2)
	ref := runWindowed(t, sqls, recs, Options{M: 8000, Seed: 3})

	var gotRows []hfta.WindowRow
	var gotLeds []hfta.WindowLedger
	seen := map[uint32]bool{}
	opts := Options{M: 8000, Seed: 3}
	opts.OnWindow = func(rel attr.Set, led hfta.WindowLedger, rows []hfta.WindowRow) {
		if !seen[led.Window] {
			seen[led.Window] = true
			gotLeds = append(gotLeds, led)
		}
		// Deep-copy: row storage is recycled after delivery, so a
		// retaining handler must copy the inner slices too.
		for _, r := range rows {
			r.Key = append([]uint32(nil), r.Key...)
			r.Aggs = append([]int64(nil), r.Aggs...)
			if r.Sketch != nil {
				r.Sketch = append([]float64(nil), r.Sketch...)
			}
			gotRows = append(gotRows, r)
		}
	}
	e := runWindowed(t, sqls, recs, opts)
	if len(e.WindowResults()) != 0 {
		t.Fatal("handler installed but rows still accumulated")
	}
	if !reflect.DeepEqual(gotLeds, ref.WindowLedgers()) {
		t.Fatal("streamed ledgers differ from retained ledgers")
	}
	if !reflect.DeepEqual(gotRows, ref.WindowResults()) {
		t.Fatal("streamed rows differ from retained rows")
	}
}

// TestSketchOnlyTumbling: a workload with sketch aggregates and no
// window clause runs as size-1 tumbling windows — one result per epoch,
// sketches evaluated per epoch.
func TestSketchOnlyTumbling(t *testing.T) {
	recs, _ := testWorkload(t, 20000)
	sqls := []string{
		"select A, B, count(*) as cnt, count_distinct(D) as uniq from R group by A, B, time/10",
		"select B, C, count(*) as cnt, count_distinct(D) as uniq from R group by B, C, time/10",
	}
	e := runWindowed(t, sqls, recs, Options{M: 8000, Seed: 3})
	if spec := e.winComposer.Spec(); spec.Size != 1 || spec.Slide != 1 {
		t.Fatalf("sketch-only workload composes %+v; want 1/1 tumbling", spec)
	}
	want := hfta.WindowOracle(recs, e.queries, e.aggs, e.sketchAggs, 0, 0, e.epochLen, hfta.WindowSpec{Size: 1, Slide: 1})
	compareEngineToOracle(t, e, want)
	for _, r := range e.WindowResults() {
		if len(r.Sketch) != len(e.sketchAggs) {
			t.Fatalf("row carries %d sketch slots; want %d", len(r.Sketch), len(e.sketchAggs))
		}
	}
	_ = sketch.DefaultPrecision // anchor the import: precision defaults flow through NewComposer
}

// TestCheckpointAllocsIndependentOfHistory: a checkpoint's size grows with
// every closed epoch (three ledger histories), its allocations must not —
// each field is a store into the engine's one buffer, and the retained
// panes are encoded from the composer's runs in place. Every record here
// opens a new epoch, so 2000 records close 2000 epochs.
func TestCheckpointAllocsIndependentOfHistory(t *testing.T) {
	sqls := []string{
		"select A, B, count(*) as cnt, count_distinct(D) as uniq from R group by A, B, time/10 window 4 slide 2",
		"select B, C, count(*) as cnt, count_distinct(D) as uniq from R group by B, C, time/10 window 4 slide 2",
	}
	recs := make([]stream.Record, 2002)
	for i := range recs {
		recs[i] = stream.Record{Attrs: []uint32{uint32(i % 7), uint32(i % 5), uint32(i % 3), uint32(i)}, Time: uint32(10 * i)}
	}
	e, err := NewFromSample(sqls, recs, Options{
		M: 8000, Seed: 3, Shards: 2,
		OnResults: func(attr.Set, uint32, []hfta.Row, Degradation) {},
		OnWindow:  func(attr.Set, hfta.WindowLedger, []hfta.WindowRow) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(closed int) (allocs float64, size int) {
		if err := feedAll(e, recs[e.Consumed():closed+1]); err != nil {
			t.Fatal(err)
		}
		if got := e.Stats().Epochs; got != closed {
			t.Fatalf("%d epochs closed, want %d", got, closed)
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := e.Checkpoint(io.Discard); err != nil {
				t.Fatal(err)
			}
		}), buf.Len()
	}
	few, fewSize := measure(10)
	many, manySize := measure(2000)
	if manySize < fewSize+1990*100 {
		t.Fatalf("image grew from %d to %d bytes over 1990 epochs; the histories are missing", fewSize, manySize)
	}
	t.Logf("Checkpoint: %.0f allocs at 10 epochs (%d B), %.0f at 2000 (%d B)", few, fewSize, many, manySize)
	if few != many {
		t.Errorf("Checkpoint allocates %.0f times at 10 closed epochs and %.0f at 2000", few, many)
	}
	if many > 100 {
		t.Errorf("Checkpoint allocates %.0f times, want a small constant", many)
	}
}

// admitSQL is a windowed count_distinct workload: the product path's pane
// sketches, with no t-digest (whose insert buffer is the one sketch that
// allocates as it fills).
var admitSQL = []string{
	"select A, B, count(*) as cnt, count_distinct(D) as uniq from R group by A, B, time/10 window 4 slide 2",
	"select B, C, count(*) as cnt, count_distinct(D) as uniq from R group by B, C, time/10 window 4 slide 2",
}

// TestObservePaneSketchesAllocs: recording a tuple the open pane holds
// allocates nothing, and once a pane has closed, neither does a pane —
// admission, the derivation of every query's partials at close, and their
// serialization — over groups new to it: their partials are ones the
// tables reset.
func TestObservePaneSketchesAllocs(t *testing.T) {
	recs, groups := testWorkload(t, 2000)
	e, err := New(admitSQL, groups, Options{M: 8000, Seed: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ps := e.paneSk
	row := recs[0].Attrs
	ps.observe(row)
	if avg := testing.AllocsPerRun(200, func() { ps.observe(row) }); avg != 0 {
		t.Errorf("observing a tuple the pane holds averaged %.1f allocs, want 0", avg)
	}
	pane := func(recs []stream.Record) {
		for _, r := range recs {
			ps.observe(r.Attrs)
		}
		ps.derive()
		for i, q := range e.queries {
			ps.tabs[i].close(q.Size())
		}
	}
	pane(recs[:500])
	if avg := testing.AllocsPerRun(20, func() { pane(recs[500:1000]) }); avg != 0 {
		t.Errorf("a pane of 500 records over pooled partials averaged %.1f allocs, want 0", avg)
	}
}

// BenchmarkWindowedAdmit is the admission layer's local signal on the
// product path: ProcessColumnBatch plus epoch close on a windowed
// count_distinct 2-shard engine, per record. Its tuples are nearly all
// distinct within a pane, the unfavourable case for the pane sketches'
// phantom (see BenchmarkWindowedAdmitFlows).
func BenchmarkWindowedAdmit(b *testing.B) {
	recs := make([]stream.Record, 1<<16)
	for i := range recs {
		h := uint32(i) * 2654435761
		recs[i] = stream.Record{Attrs: []uint32{h % 61, h >> 8 % 97, h >> 16 % 53, h % 4099}, Time: uint32(i / 512)}
	}
	benchWindowedAdmit(b, recs)
}

// BenchmarkWindowedAdmitFlows is BenchmarkWindowedAdmit over the paper's
// clustered flows (mean length 30): a pane's records repeat few distinct
// tuples, the favourable case for the phantom.
func BenchmarkWindowedAdmitFlows(b *testing.B) {
	u, err := gen.PaperUniverse(5)
	if err != nil {
		b.Fatal(err)
	}
	ft, err := gen.Flows(rand.New(rand.NewSource(6)), u, gen.FlowConfig{NumRecords: 1 << 16, Duration: 128, MeanFlowLen: 30, Concurrency: 64})
	if err != nil {
		b.Fatal(err)
	}
	benchWindowedAdmit(b, ft.Records)
}

func benchWindowedAdmit(b *testing.B, recs []stream.Record) {
	groups, err := EstimateGroups(recs[:8192], []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("BC")})
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(admitSQL, groups, Options{
		M: 8000, Seed: 3, Shards: 2,
		OnResults: func(attr.Set, uint32, []hfta.Row, Degradation) {},
		OnWindow:  func(attr.Set, hfta.WindowLedger, []hfta.WindowRow) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	var batches []stream.ColumnBatch
	src := stream.NewSliceSource(recs)
	for {
		var cb stream.ColumnBatch
		if stream.ReadColumns(src, &cb, stream.ColumnBatchLen) == 0 {
			break
		}
		batches = append(batches, cb)
	}
	// Each pass shifts time past the last, so every pass closes epochs.
	span := recs[len(recs)-1].Time + 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	records := 0
	for i := 0; i < b.N; i++ {
		for j := range batches {
			cb := &batches[j]
			for k := range cb.Time {
				cb.Time[k] += span
			}
			if err := e.ProcessColumnBatch(cb); err != nil {
				b.Fatal(err)
			}
			records += cb.Len()
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(records), "allocs/record")
}
