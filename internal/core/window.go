package core

import (
	"repro/internal/attr"
	"repro/internal/hfta"
	"repro/internal/sketch"
)

// Sliding-window wiring: every closed LFTA epoch becomes a pane, and the
// hfta.Composer folds panes into overlapping windows. The engine's part
// is deliberately thin — at each epoch close it hands the composer the
// epoch's finalized HFTA rows plus the pane's serialized sketch partials,
// then delivers whatever windows the composer says are complete. Sketch
// accumulation runs in the single-threaded admission path
// (ProcessColumnBatch), never inside the sharded probe pipeline, so the
// SIMD probe hot path is byte-identical with and without windowing and
// windowed results match across shard counts.

// WindowHandler streams closed windows out of the engine: one call per
// query relation per closed window, rows in packed little-endian byte
// order of their group keys (hfta.PackKey), HAVING applied to the composed
// exact aggregates. rows — including each row's
// Key, Aggs, and Sketch slices — is only valid during the call: once
// every relation of a window has been delivered the storage is recycled
// into the composer, so a handler that retains results must deep-copy.
type WindowHandler func(rel attr.Set, led hfta.WindowLedger, rows []hfta.WindowRow)

// initWindowing builds the pane→window composer when the workload
// declares a window clause or sketch aggregates. A sketch-only workload
// (no window clause) runs as size-1 tumbling windows: each epoch closes
// its own window, which is exactly per-epoch sketch read-out.
func (e *Engine) initWindowing() error {
	s0 := e.specs[0]
	if !s0.Windowed() && len(s0.Sketches) == 0 {
		return nil
	}
	win := hfta.WindowSpec{Size: s0.WindowSize, Slide: s0.WindowSlide}
	if !s0.Windowed() {
		win = hfta.WindowSpec{Size: 1, Slide: 1}
	}
	e.sketchAggs = s0.SketchSpecs()
	comp, err := hfta.NewComposer(win, e.queries, e.aggs, e.sketchAggs,
		e.opts.WindowSketchPrecision, e.opts.DigestCompression)
	if err != nil {
		return err
	}
	e.winComposer = comp
	if len(e.sketchAggs) > 0 {
		e.paneTabs = make([]paneTable, len(e.queries))
	}
	return nil
}

// Windowed reports whether the engine composes sliding windows (true for
// any workload with a window clause or sketch aggregates).
func (e *Engine) Windowed() bool { return e.winComposer != nil }

// sketchPrecision returns the resolved HLL precision (options value or
// the sketch package default), so an explicit default and a zero option
// configure — and checkpoint — identically.
func (e *Engine) sketchPrecision() uint8 {
	if e.opts.WindowSketchPrecision != 0 {
		return e.opts.WindowSketchPrecision
	}
	return sketch.DefaultPrecision
}

// digestCompression returns the resolved t-digest compression.
func (e *Engine) digestCompression() float64 {
	if e.opts.DigestCompression != 0 {
		return e.opts.DigestCompression
	}
	return sketch.DefaultCompression
}

// paneTable is one query's sketch partials for the open pane, one per
// group of a key index. close Resets each for the group that takes its
// place in the next pane, so observing a record allocates nothing once
// the table has held as many groups.
type paneTable struct {
	hfta.KeyIndex
	parts []*sketch.Partial // the first len(Keys)/arity are the open pane's
	blob  []byte
	out   []hfta.KeyBlob
}

// close serializes the open pane's partials in group order, resets them
// and empties the table. The result aliases the table's buffers: it is
// valid until the next record is observed.
func (t *paneTable) close(arity int) []hfta.KeyBlob {
	t.blob, t.out = t.blob[:0], t.out[:0]
	for g, p := range t.parts[:len(t.Keys)/arity] {
		at := len(t.blob)
		t.blob = p.AppendBinary(t.blob)
		t.out = append(t.out, hfta.KeyBlob{Key: t.Keys[g*arity : (g+1)*arity], Blob: t.blob[at:]})
		p.Reset()
	}
	at := 0 // the appends may have moved the buffer: point every blob into it
	for i := range t.out {
		n := len(t.out[i].Blob)
		t.out[i].Blob = t.blob[at : at+n : at+n]
		at += n
	}
	t.Reset()
	return t.out
}

// observePaneSketches feeds one admitted record into the open pane's
// per-group sketch partials, for every query relation. Runs on the
// admission path before sharding, so partials are deterministic in the
// stream order regardless of deployment shape.
func (e *Engine) observePaneSketches(attrs []uint32) {
	for i, q := range e.queries {
		t := &e.paneTabs[i]
		e.paneKeyBuf = q.Project(attrs, e.paneKeyBuf[:0])
		g, _ := t.Lookup(e.paneKeyBuf)
		if g == len(t.parts) {
			// The spec list was validated when the composer was built.
			p, _ := sketch.NewPartial(e.sketchAggs, e.opts.WindowSketchPrecision, e.opts.DigestCompression)
			t.parts = append(t.parts, p)
		}
		t.parts[g].Observe(attrs)
	}
}

// feedPane hands the closing epoch to the composer as a pane: the
// epoch's read-out before HAVING plus the serialized sketch partials,
// both of which the composer copies.
func (e *Engine) feedPane(closed Degradation) {
	inputs := make([]hfta.PaneInput, 0, len(e.queries))
	for i, q := range e.queries {
		in := hfta.PaneInput{Rel: q, Rows: e.closing[i]}
		if e.paneTabs != nil {
			in.Blobs = e.paneTabs[i].close(q.Size())
		}
		inputs = append(inputs, in)
	}
	e.winComposer.ClosePane(closed.Epoch, hfta.PaneStats{
		Offered:   closed.Offered,
		Processed: closed.Processed,
		Dropped:   closed.Dropped,
		Late:      closed.Late,
	}, inputs)
}

// closeWindows delivers every window the closed epoch's pane completes.
// Every epoch before the clock's current one is final (the clock is
// monotone and late records are dropped), so any window ending there can
// close now.
func (e *Engine) closeWindows(closed Degradation) {
	if _, cur, _ := e.clock.Snapshot(); cur > closed.Epoch {
		e.deliverWindows(e.winComposer.CloseThrough(int64(cur) - 1))
	}
}

// deliverWindows applies HAVING to the composed rows and either streams
// each window through Options.OnWindow or retains it for
// WindowResults/WindowLedgers. On the handler path each result's
// storage is recycled into the composer once every query's rows have
// been delivered (the WindowHandler contract makes rows transient); the
// retention path keeps the rows and must not recycle.
func (e *Engine) deliverWindows(results []hfta.WindowResult) {
	for _, res := range results {
		e.stats.Windows++
		e.windowLeds = append(e.windowLeds, res.Ledger)
		for _, q := range e.queries {
			spec := e.specByRel[q]
			rows := e.winRowScratch[:0]
			for _, r := range res.Rows {
				if r.Rel != q {
					continue
				}
				if spec != nil && !spec.MatchHaving(r.Aggs) {
					continue
				}
				rows = append(rows, r)
			}
			e.winRowScratch = rows
			if e.opts.OnWindow != nil {
				e.opts.OnWindow(q, res.Ledger, rows)
			} else {
				e.windowRows = append(e.windowRows, rows...)
			}
		}
		if e.opts.OnWindow != nil {
			e.winComposer.Recycle(res)
		}
	}
}

// WindowResults returns every closed window's rows (HAVING applied),
// ordered by window close, then query, then packed little-endian byte
// order of the group key (hfta.PackKey). Empty when an OnWindow handler
// streams them instead.
func (e *Engine) WindowResults() []hfta.WindowRow { return e.windowRows }

// WindowLedgers returns the ledger of every closed window in close
// order. Each ledger satisfies Offered == Processed + Dropped + Late
// summed over the window's panes.
func (e *Engine) WindowLedgers() []hfta.WindowLedger { return e.windowLeds }
