package core

import (
	"slices"

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
// query relation per closed window, rows sorted by group key (numeric,
// per attribute, the order OnResults gets), HAVING applied to the
// composed exact aggregates. rows — including each row's
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
		e.paneSk = newPaneSketches(e.queries, e.sketchAggs, e.opts.WindowSketchPrecision, e.opts.DigestCompression)
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

// group returns key's partial, appending a pooled or new one for a key
// the open pane has not held.
func (t *paneTable) group(key []uint32, ps *paneSketches) *sketch.Partial {
	g, _ := t.Lookup(key)
	if g == len(t.parts) {
		// The spec list was validated when the composer was built.
		p, _ := sketch.NewPartial(ps.aggs, ps.prec, ps.comp)
		t.parts = append(t.parts, p)
	}
	return t.parts[g]
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

// paneSketches is the open pane's sketch state, kept the way the paper
// keeps a phantom: admission records each distinct tuple over F — the
// queries' attributes, then the Distinct inputs outside them — once, in
// one key index, and pane close derives every query's HLLs from those
// tuples, hashing each Distinct input once per tuple. An HLL is a
// register max, so the derived partials serialize to the bytes observing
// every record into every query would. A t-digest is not bit-associative:
// Quantile entries are still fed per record and query at admission.
type paneSketches struct {
	queries []attr.Set
	aggs    []sketch.Agg
	prec    uint8
	comp    float64

	union    attr.Set      // the queries' attributes: F's leading words
	extra    []sketch.Agg  // Distinct aggs reading inputs outside union: F's trailing words
	keyPos   [][]int       // per query, the F positions of its key
	inPos    []int         // per sketch agg, the F position of a Distinct input (-1: a Quantile)
	digests  bool          // some agg is a Quantile
	tuples   hfta.KeyIndex // the open pane's distinct F-tuples
	tabs     []paneTable   // per query
	buf, key []uint32      // an F-tuple and a query key under construction
	hash     []uint64      // per sketch agg, the tuple's Distinct hash
}

// newPaneSketches lays F out for the queries and sketch aggregates.
func newPaneSketches(queries []attr.Set, aggs []sketch.Agg, prec uint8, comp float64) *paneSketches {
	ps := &paneSketches{queries: queries, aggs: aggs, prec: prec, comp: comp, union: attr.Universe(queries),
		tabs: make([]paneTable, len(queries)), hash: make([]uint64, len(aggs))}
	// pos is attribute id's position among union's attributes.
	pos := func(id int) int { return attr.Set(uint32(ps.union) & (1<<id - 1)).Size() }
	for _, q := range queries {
		var kp []int
		for _, id := range q.IDs() {
			kp = append(kp, pos(int(id)))
		}
		ps.keyPos = append(ps.keyPos, kp)
	}
	for _, a := range aggs {
		switch {
		case a.Kind != sketch.Distinct:
			ps.digests = true
			ps.inPos = append(ps.inPos, -1)
		case a.Input >= 0 && a.Input < attr.MaxAttrs && ps.union.Has(attr.ID(a.Input)):
			ps.inPos = append(ps.inPos, pos(a.Input))
		default:
			i := slices.IndexFunc(ps.extra, func(x sketch.Agg) bool { return x.Input == a.Input })
			if i < 0 {
				i = len(ps.extra)
				ps.extra = append(ps.extra, a)
			}
			ps.inPos = append(ps.inPos, ps.union.Size()+i)
		}
	}
	return ps
}

// observe records one admitted record tuple in the open pane. Runs on the
// admission path before sharding, so partials are deterministic in the
// stream order regardless of deployment shape.
func (ps *paneSketches) observe(attrs []uint32) {
	t := ps.union.Project(attrs, ps.buf)
	for _, a := range ps.extra {
		t = append(t, a.Value(attrs))
	}
	ps.buf = t
	ps.tuples.Lookup(t)
	if ps.digests {
		for i, q := range ps.queries {
			ps.key = q.Project(attrs, ps.key)
			ps.tabs[i].group(ps.key, ps).ObserveDigests(attrs)
		}
	}
}

// derive raises every query's group HLLs from the open pane's distinct
// F-tuples and empties the tuple index.
func (ps *paneSketches) derive() {
	w := ps.union.Size() + len(ps.extra)
	keys := ps.tuples.Keys
	for at := 0; at < len(keys); at += w {
		t := keys[at : at+w]
		for j, pos := range ps.inPos {
			if pos >= 0 {
				ps.hash[j] = sketch.HashValue(t[pos])
			}
		}
		for qi, kp := range ps.keyPos {
			key := ps.key[:0]
			for _, pos := range kp {
				key = append(key, t[pos])
			}
			ps.key = key
			p := ps.tabs[qi].group(key, ps)
			for j, pos := range ps.inPos {
				if pos >= 0 {
					p.AddHash(j, ps.hash[j])
				}
			}
		}
	}
	ps.tuples.Reset()
}

// feedPane hands the closing epoch to the composer as a pane: the
// epoch's read-out before HAVING plus the serialized sketch partials,
// both of which the composer copies.
func (e *Engine) feedPane(closed Degradation) {
	if e.paneSk != nil {
		e.paneSk.derive()
	}
	inputs := make([]hfta.PaneInput, 0, len(e.queries))
	for i, q := range e.queries {
		in := hfta.PaneInput{Rel: q, Rows: e.closing[i]}
		if e.paneSk != nil {
			in.Blobs = e.paneSk.tabs[i].close(q.Size())
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
// ordered by window close, then query, then group key (numeric, per
// attribute). Empty when an OnWindow handler streams them instead.
func (e *Engine) WindowResults() []hfta.WindowRow { return e.windowRows }

// WindowLedgers returns the ledger of every closed window in close
// order. Each ledger satisfies Offered == Processed + Dropped + Late
// summed over the window's panes.
func (e *Engine) WindowLedgers() []hfta.WindowLedger { return e.windowLeds }
