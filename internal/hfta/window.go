package hfta

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/attr"
	"repro/internal/lfta"
	"repro/internal/sketch"
)

// Sliding-window composition over panes. Each closed LFTA epoch becomes
// a pane: the per-group exact aggregates the HFTA accumulated for that
// epoch plus the per-group serialized sketch partials. The composer
// retains panes in a ring keyed by epoch and folds them into overlapping
// windows — window i covers epochs [i·slide, i·slide+size) — emitting
// one result row per (window close, group) and evicting a pane as soon
// as no live window can reference it. Composition is pure merging
// (AggOp.Combine on exact slots, sketch.Partial.Merge on partials), so
// the probe hot path below is untouched: panes are whatever the epoch
// pipeline already produces.

// WindowSpec is a sliding window expressed in epochs.
type WindowSpec struct {
	Size  uint32 // epochs per window, ≥ 1
	Slide uint32 // epochs between window starts, ≥ 1
}

// start returns the first epoch of window i.
func (w WindowSpec) start(i int64) int64 { return i * int64(w.Slide) }

// end returns the last epoch of window i (inclusive).
func (w WindowSpec) end(i int64) int64 { return w.start(i) + int64(w.Size) - 1 }

// PaneStats is the degradation ledger of one pane, mirroring the
// engine's per-epoch Offered == Processed + Dropped + Late identity.
type PaneStats struct {
	Offered   uint64
	Processed uint64
	Dropped   uint64
	Late      uint64
}

func (s *PaneStats) add(o PaneStats) {
	s.Offered += o.Offered
	s.Processed += o.Processed
	s.Dropped += o.Dropped
	s.Late += o.Late
}

// zero reports whether no record touched the pane's ledger.
func (s PaneStats) zero() bool {
	return s.Offered == 0 && s.Processed == 0 && s.Dropped == 0 && s.Late == 0
}

// WindowLedger is the summed pane ledger of one closed window.
type WindowLedger struct {
	Window uint32 // window index i
	Start  uint32 // first epoch covered
	End    uint32 // last epoch covered (inclusive)
	Stats  PaneStats
}

// WindowRow is one group's result for one closed window.
type WindowRow struct {
	Rel    attr.Set
	Window uint32
	Start  uint32
	End    uint32
	Key    []uint32
	Aggs   []int64   // exact slots, aligned with the workload agg list
	Sketch []float64 // sketch estimates, aligned with the sketch agg list
}

// WindowResult is everything emitted when one window closes: its ledger
// and the rows of every query relation, in query order, sorted by group
// key (numeric, per attribute, as Rows) within each relation.
type WindowResult struct {
	Ledger WindowLedger
	Rows   []WindowRow
}

// PaneInput is one relation's slice of a closing pane: per-group rows and
// partials, keyed by packed key (Sketches) or by key words (Blobs). A key
// of the wrong arity is ignored; ClosePane copies the rest.
type PaneInput struct {
	Rel      attr.Set
	Rows     []Row             // per-group exact aggregates
	Sketches map[string][]byte // packed group key → serialized sketch.Partial
	Blobs    []KeyBlob         // group key → serialized sketch.Partial
}

// PaneRun is one relation's groups in a retained pane, sorted on arrival
// by key (numeric, per attribute, as Rows): a run. Group g's key is
// Key(g, arity), its exact slots Slots(g, na) (identities without a row),
// its partial Partial(g); HasRow and HasSketch say which it carries. The
// columns are never written once built, so a reader — the checkpoint
// encoder — shares them.
type PaneRun struct {
	keys []uint32
	aggs []int64
	has  []uint8
	boff []uint32
	blob []byte
}

const (
	hasRow uint8 = 1 << iota
	hasSketch
)

// Len returns the run's group count.
func (rp *PaneRun) Len() int                  { return len(rp.has) }
func (rp *PaneRun) Key(g, arity int) []uint32 { return rp.keys[g*arity : (g+1)*arity : (g+1)*arity] }
func (rp *PaneRun) Slots(g, na int) []int64   { return rp.aggs[g*na : (g+1)*na : (g+1)*na] }
func (rp *PaneRun) Partial(g int) []byte      { return rp.blob[rp.boff[g]:rp.boff[g+1]:rp.boff[g+1]] }
func (rp *PaneRun) HasRow(g int) bool         { return rp.has[g]&hasRow != 0 }
func (rp *PaneRun) HasSketch(g int) bool      { return rp.has[g]&hasSketch != 0 }

// pane is one retained epoch: its ledger and one run per query (nil where
// the query had no group).
type pane struct {
	stats PaneStats
	rels  []*PaneRun // by query position
}

// paneEnt is one contribution to a run being built: a row's slots, a
// partial, or both (a group of the run a re-fed pane already holds).
type paneEnt struct {
	key  []uint32
	aggs []int64
	blob []byte
	has  uint8
}

// Composer retains panes and closes sliding windows over them.
//
// A pane costs a handful of allocations, its runs' columns. Delivered
// results return their row, key, agg and estimate slices via Recycle, and
// every group's sketches merge through the same two partials, so a window
// close allocates for its t-digest decodes only. The composer is
// single-goroutine by contract (it runs on the engine's epoch close).
type Composer struct {
	win     WindowSpec
	queries []attr.Set
	aggs    []lfta.AggSpec
	saggs   []sketch.Agg
	prec    uint8
	comp    float64
	ident   []int64 // the aggregates' identities

	panes map[uint32]*pane
	next  int64 // lowest window index not yet closed

	// freelists and reusable scratch (see type comment)
	rowsPool [][]WindowRow
	aggsPool [][]int64
	keyPool  [][]uint32
	estPool  [][]float64
	runs     []*PaneRun      // the composed window's runs of one query, ascending epoch
	cur      []int           // the merge's cursor into each run
	acc      *sketch.Partial // a group's merged partial and its decode scratch,
	spare    *sketch.Partial // both overwritten group after group
	ents     []paneEnt       // a run under construction
	order    readScratch     // its sort permutation
}

// NewComposer builds a composer for a workload's query relations, exact
// aggregate list, and sketch aggregate list. precision/compression of 0
// select the sketch package defaults.
func NewComposer(win WindowSpec, queries []attr.Set, aggs []lfta.AggSpec, saggs []sketch.Agg, precision uint8, compression float64) (*Composer, error) {
	if win.Size == 0 || win.Slide == 0 {
		return nil, fmt.Errorf("hfta: window size and slide must be ≥ 1, got %d/%d", win.Size, win.Slide)
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("hfta: composer needs at least one query")
	}
	if precision == 0 {
		precision = sketch.DefaultPrecision
	}
	if compression == 0 {
		compression = sketch.DefaultCompression
	}
	// Validate the sketch spec list up front so decode errors later can
	// only mean corrupt data.
	acc, err := sketch.NewPartial(saggs, precision, compression)
	if err != nil && len(saggs) > 0 {
		return nil, err
	}
	spare, _ := sketch.NewPartial(saggs, precision, compression)
	return &Composer{
		acc:     acc,
		spare:   spare,
		win:     win,
		queries: queries,
		aggs:    aggs,
		saggs:   saggs,
		prec:    precision,
		comp:    compression,
		ident:   identities(aggs),
		panes:   make(map[uint32]*pane),
	}, nil
}

// Spec returns the window geometry.
func (c *Composer) Spec() WindowSpec { return c.win }

// PaneCount returns the number of retained panes (diagnostics).
func (c *Composer) PaneCount() int { return len(c.panes) }

// PackKey encodes a group key as a comparable map key: little-endian
// 4-byte words.
func PackKey(key []uint32) string { return string(AppendKeyBytes(nil, key)) }

// AppendKeyBytes appends the packed form of key to dst.
func AppendKeyBytes(dst []byte, key []uint32) []byte {
	for _, v := range key {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// UnpackKey decodes a packed group key.
func UnpackKey(s string) []uint32 { return appendKeyWords(make([]uint32, 0, len(s)/4), s) }

// appendKeyWords appends the words of a packed group key to dst.
func appendKeyWords(dst []uint32, s string) []uint32 {
	for i := 0; i+4 <= len(s); i += 4 {
		dst = append(dst, uint32(s[i])|uint32(s[i+1])<<8|uint32(s[i+2])<<16|uint32(s[i+3])<<24)
	}
	return dst
}

// ClosePane hands the composer one finalized epoch. Epochs close in
// strictly increasing order (the engine's clock is monotone and late
// records never reopen an epoch), so a pane is final on arrival. Panes
// older than any live window are ignored — they can only appear after a
// checkpoint restore replays input the restored composer already closed
// windows over. An epoch fed again folds into the pane it has.
func (c *Composer) ClosePane(epoch uint32, stats PaneStats, inputs []PaneInput) {
	if int64(epoch) < c.win.start(c.next) {
		return
	}
	p := c.panes[epoch]
	if p == nil {
		p = &pane{rels: make([]*PaneRun, len(c.queries))}
		c.panes[epoch] = p
	}
	p.stats.add(stats)
	for qi := range c.queries {
		_ = c.feed(p, qi, inputs, false)
	}
}

// feed sorts query qi's groups in the inputs — after the run pane p holds
// for it, if any — into p's new run for the query (see buildRun).
func (c *Composer) feed(p *pane, qi int, inputs []PaneInput, strict bool) error {
	q, na := c.queries[qi], len(c.aggs)
	arity := q.Size()
	ents := c.ents[:0]
	defer func() { clear(ents); c.ents = ents[:0] }() // drop the references to the inputs
	if rp := p.rels[qi]; rp != nil {
		for g, h := range rp.has {
			ents = append(ents, paneEnt{rp.Key(g, arity), rp.Slots(g, na), rp.Partial(g), h})
		}
	}
	for _, in := range inputs {
		if in.Rel != q {
			continue
		}
		for i := range in.Rows {
			if r := &in.Rows[i]; len(r.Key) == arity {
				ents = append(ents, paneEnt{key: r.Key, aggs: r.Aggs, has: hasRow})
			}
		}
		words := make([]uint32, 0, len(in.Sketches)*arity) // sized: the keys below alias it
		for k, blob := range in.Sketches {
			if len(k) == 4*arity {
				words = appendKeyWords(words, k)
				ents = append(ents, paneEnt{key: words[len(words)-arity:], blob: blob, has: hasSketch})
			}
		}
		for _, kb := range in.Blobs {
			if len(kb.Key) == arity {
				ents = append(ents, paneEnt{key: kb.Key, blob: kb.Blob, has: hasSketch})
			}
		}
	}
	if len(ents) == 0 {
		return nil
	}
	rp, err := c.buildRun(ents, arity, strict)
	if err == nil {
		p.rels[qi] = rp
	}
	return err
}

// buildRun sorts entries into a run (the read-out's order: stable,
// numeric per attribute) and folds each key's entries in arrival order
// into one group: rows combine, partials merge (one that does not merge
// is dropped). With strict set a key's second row or partial is an error
// instead.
func (c *Composer) buildRun(ents []paneEnt, arity int, strict bool) (*PaneRun, error) {
	sc := &c.order
	keys := sc.keys[:0]
	for i := range ents {
		keys = append(keys, ents[i].key...)
	}
	sc.keys = keys
	sc.order(keys, arity)
	perm := sc.perm
	n := 0
	for i, x := range perm {
		if i == 0 || !slices.Equal(ents[x].key, ents[perm[i-1]].key) {
			n++
		}
	}
	na, size := len(c.aggs), 0
	for _, e := range ents {
		size += len(e.blob) // a capacity hint: merging does not grow partials
	}
	rp := &PaneRun{keys: make([]uint32, n*arity), aggs: make([]int64, n*na), has: make([]uint8, n),
		boff: make([]uint32, n+1), blob: make([]byte, 0, size)}
	g := -1
	for i, x := range perm {
		e := &ents[x]
		if i == 0 || !slices.Equal(e.key, ents[perm[i-1]].key) {
			g++
			copy(rp.keys[g*arity:], e.key)
			copy(rp.aggs[g*na:], c.ident)
			rp.boff[g] = uint32(len(rp.blob))
		}
		if e.has&hasRow != 0 {
			acc := rp.Slots(g, na)
			switch {
			case rp.has[g]&hasRow == 0:
				copy(acc, e.aggs)
			case strict:
				return nil, fmt.Errorf("duplicate group")
			default:
				for j, spec := range c.aggs {
					acc[j] = spec.Op.Combine(acc[j], e.aggs[j])
				}
			}
		}
		if e.has&hasSketch != 0 {
			switch {
			case rp.has[g]&hasSketch == 0:
				rp.blob = append(rp.blob, e.blob...)
			case strict:
				return nil, fmt.Errorf("duplicate sketch group")
			default: // the group's partial is the last one copied
				if merged, err := c.mergeBlobs(rp.blob[rp.boff[g]:], e.blob); err == nil {
					rp.blob = append(rp.blob[:rp.boff[g]], merged...)
				}
			}
		}
		rp.has[g] |= e.has
	}
	rp.boff[n] = uint32(len(rp.blob))
	return rp, nil
}

func (c *Composer) mergeBlobs(a, b []byte) ([]byte, error) {
	pa, _, err := sketch.DecodePartial(c.saggs, c.prec, c.comp, a)
	if err != nil {
		return nil, err
	}
	pb, _, err := sketch.DecodePartial(c.saggs, c.prec, c.comp, b)
	if err != nil {
		return nil, err
	}
	if err := pa.Merge(pb); err != nil {
		return nil, err
	}
	return pa.AppendBinary(nil), nil
}

// CloseAll flushes at end of stream: every window that overlaps a
// retained pane closes, including trailing partially-filled ones.
func (c *Composer) CloseAll() []WindowResult {
	_, maxPane, ok := c.paneSpan()
	if !ok {
		return nil
	}
	// All windows with start ≤ maxPane, i.e. end ≤ maxPane + Size - 1.
	return c.CloseThrough(int64(maxPane) + int64(c.win.Size) - 1)
}

// paneSpan returns the oldest and newest retained pane's epochs.
func (c *Composer) paneSpan() (min, max uint32, ok bool) {
	for e := range c.panes {
		if !ok || e < min {
			min = e
		}
		if !ok || e > max {
			max = e
		}
		ok = true
	}
	return min, max, ok
}

// CloseThrough closes every window whose last epoch is ≤ maxEnd (the
// newest epoch known to be final: the engine passes clock.Current()-1
// whenever the clock has advanced). Results come back in window order.
// Windows whose span holds no pane at all are skipped silently (the
// stream had no traffic there); the skip fast-forwards in O(1) per gap,
// so a clock jump of billions of epochs does not spin.
func (c *Composer) CloseThrough(maxEnd int64) []WindowResult {
	var out []WindowResult
	defer c.evict()
	for {
		start, end := c.win.start(c.next), c.win.end(c.next)
		if end > maxEnd {
			break
		}
		c.evict()
		minPane, _, ok := c.paneSpan()
		if !ok || int64(minPane) > maxEnd {
			// Nothing left through maxEnd: jump past it entirely.
			c.next = fastForward(c.next, maxEnd+1, c.win)
			break
		}
		if int64(minPane) > end {
			// Gap: jump to the first window whose span reaches minPane.
			c.next = fastForward(c.next, int64(minPane), c.win)
			continue
		}
		out = append(out, c.compose(start, end))
		c.next++
	}
	return out
}

// evict drops every pane no window at index ≥ next can reference.
func (c *Composer) evict() {
	start := c.win.start(c.next)
	for e := range c.panes {
		if int64(e) < start {
			delete(c.panes, e)
		}
	}
}

// take pops a freelist's last slice (emptied), or returns nil.
func take[T any](pool *[][]T) []T {
	n := len(*pool)
	if n == 0 {
		return nil
	}
	s := (*pool)[n-1]
	*pool = (*pool)[:n-1]
	return s
}

// Recycle returns a delivered WindowResult's storage — the row slice and
// every row's key, agg, and sketch-estimate slice — to the composer's
// freelists. Call only once the result is fully consumed: later
// compositions reuse the returned storage. Callers that retain rows
// (or hand them to retaining consumers) must simply not recycle.
func (c *Composer) Recycle(res WindowResult) {
	for i := range res.Rows {
		r := &res.Rows[i]
		if r.Key != nil {
			c.keyPool = append(c.keyPool, r.Key[:0])
		}
		if r.Aggs != nil {
			c.aggsPool = append(c.aggsPool, r.Aggs[:0])
		}
		if r.Sketch != nil {
			c.estPool = append(c.estPool, r.Sketch[:0])
		}
		res.Rows[i] = WindowRow{}
	}
	if res.Rows != nil {
		c.rowsPool = append(c.rowsPool, res.Rows[:0])
	}
}

// fastForward returns the smallest window index ≥ cur whose end reaches
// target (i.e. end ≥ target).
func fastForward(cur, target int64, w WindowSpec) int64 {
	// end(i) = i·slide + size - 1 ≥ target  ⇔  i ≥ (target-size+1)/slide.
	num := target - int64(w.Size) + 1
	var i int64
	if num > 0 {
		i = (num + int64(w.Slide) - 1) / int64(w.Slide)
	}
	if i < cur {
		i = cur
	}
	return i
}

// compose merges the panes of [start, end] into one WindowResult: per
// query, a merge of the window's sorted runs (see merge). Agg slices, key
// slices, estimate buffers, and the row slice itself come from the
// freelists (refilled by Recycle).
func (c *Composer) compose(start, end int64) WindowResult {
	res := WindowResult{Ledger: WindowLedger{
		Window: uint32(c.next),
		Start:  uint32(start),
		End:    uint32(end),
	}}
	res.Rows = take(&c.rowsPool)
	for qi := range c.queries {
		runs := c.runs[:0]
		for e := start; e <= end; e++ {
			if p := c.panes[uint32(e)]; p != nil && p.rels[qi] != nil {
				runs = append(runs, p.rels[qi])
			}
		}
		c.runs = runs
		res.Rows = c.merge(res.Rows, qi, res.Ledger)
		clear(runs)
	}
	for e := start; e <= end; e++ {
		if p := c.panes[uint32(e)]; p != nil {
			res.Ledger.Stats.add(p.stats)
		}
	}
	return res
}

// merge appends one query's rows of a window: a k-way merge of c.runs
// (ascending epoch) that takes the smallest head key and folds and
// advances every run holding it. Slots combine; partials merge in
// ascending epoch (which keeps t-digest results identical across runs and
// shard counts), the first that decodes into c.acc, later ones through
// c.spare. A partial that does not decode is skipped, and a group with
// neither a row nor a partial that decodes is not emitted.
func (c *Composer) merge(rows []WindowRow, qi int, led WindowLedger) []WindowRow {
	q, runs := c.queries[qi], c.runs
	arity, na := q.Size(), len(c.aggs)
	cur := c.cur[:0]
	for range runs {
		cur = append(cur, 0)
	}
	c.cur = cur
	for {
		min := -1
		var key []uint32
		for r, rp := range runs {
			if g := cur[r]; g < len(rp.has) {
				if k := rp.Key(g, arity); min < 0 || slices.Compare(k, key) < 0 {
					min, key = r, k
				}
			}
		}
		if min < 0 {
			return rows
		}
		acc := append(take(&c.aggsPool), c.ident...)
		row, merged := false, false
		for r := min; r < len(runs); r++ {
			rp, g := runs[r], cur[r]
			if g >= len(rp.has) || (r > min && !slices.Equal(rp.Key(g, arity), key)) {
				continue
			}
			cur[r]++
			if rp.has[g]&hasRow != 0 {
				for j, spec := range c.aggs {
					acc[j] = spec.Op.Combine(acc[j], rp.aggs[g*na+j])
				}
				row = true
			}
			if len(c.saggs) > 0 && rp.has[g]&hasSketch != 0 {
				into := c.acc
				if merged {
					into = c.spare
				}
				if _, err := into.DecodeFrom(c.prec, c.comp, rp.Partial(g)); err != nil {
					continue
				}
				if merged {
					_ = c.acc.Merge(c.spare)
				}
				merged = true
			}
		}
		if !row && !merged {
			c.aggsPool = append(c.aggsPool, acc[:0])
			continue
		}
		wr := WindowRow{Rel: q, Window: led.Window, Start: led.Start, End: led.End,
			Key: append(take(&c.keyPool), key...), Aggs: acc}
		if len(c.saggs) > 0 {
			if !merged {
				c.acc.Reset() // no partial in any pane: the estimates of an empty one
			}
			wr.Sketch = c.acc.Estimates(take(&c.estPool))
		}
		rows = append(rows, wr)
	}
}

// identities returns a fresh slice of aggregate identity values.
func identities(aggs []lfta.AggSpec) []int64 {
	out := make([]int64, len(aggs))
	for i, a := range aggs {
		out[i] = a.Op.Identity()
	}
	return out
}

// --- checkpoint snapshot ---

// KeyBlob pairs a group key with a serialized sketch partial.
type KeyBlob struct {
	Key  []uint32
	Blob []byte
}

// PaneRelSnapshot is one relation's slice of a snapshotted pane: its rows
// and blobs in any order (a checkpoint lists them in run order, numeric
// by key; RestorePanes sorts them into a run either way).
type PaneRelSnapshot struct {
	Rel      attr.Set
	Rows     []Row
	Sketches []KeyBlob
}

// PaneSnapshot is one retained pane in deterministic order: what a
// checkpoint decodes and RestorePanes takes.
type PaneSnapshot struct {
	Epoch uint32
	Stats PaneStats
	Rels  []PaneRelSnapshot
}

// Next returns the lowest window index not yet closed.
func (c *Composer) Next() int64 { return c.next }

// PaneEpochs appends the retained panes' epochs to dst, ascending.
func (c *Composer) PaneEpochs(dst []uint32) []uint32 {
	at := len(dst)
	for e := range c.panes {
		dst = append(dst, e)
	}
	slices.Sort(dst[at:])
	return dst
}

// Pane returns the retained pane of epoch e: its ledger and its runs by
// query position (nil where the query has no group), shared with the
// composer and read-only. ok is false when no pane of e is retained.
func (c *Composer) Pane(e uint32) (stats PaneStats, runs []*PaneRun, ok bool) {
	p := c.panes[e]
	if p == nil {
		return PaneStats{}, nil, false
	}
	return p.stats, p.rels, true
}

// RestorePanes replaces the composer's state with a snapshot. Blobs are
// validated against the sketch spec list; they are stored verbatim so a
// snapshot → restore → snapshot round trip is byte-identical.
func (c *Composer) RestorePanes(next int64, panes []PaneSnapshot) error {
	if next < 0 {
		return fmt.Errorf("hfta: negative window index %d", next)
	}
	fresh := make(map[uint32]*pane, len(panes))
	for _, ps := range panes {
		if int64(ps.Epoch) < c.win.start(next) {
			return fmt.Errorf("hfta: pane %d precedes live window %d", ps.Epoch, next)
		}
		if fresh[ps.Epoch] != nil {
			return fmt.Errorf("hfta: duplicate pane %d", ps.Epoch)
		}
		p := &pane{stats: ps.Stats, rels: make([]*PaneRun, len(c.queries))}
		seen := make([]bool, len(c.queries))
		for _, rs := range ps.Rels {
			qi := slices.Index(c.queries, rs.Rel)
			if qi < 0 {
				return fmt.Errorf("hfta: pane %d names unknown relation %v", ps.Epoch, rs.Rel)
			}
			if seen[qi] {
				return fmt.Errorf("hfta: pane %d repeats relation %v", ps.Epoch, rs.Rel)
			}
			seen[qi] = true
			err := c.checkRel(rs)
			if err == nil {
				err = c.feed(p, qi, []PaneInput{{Rel: rs.Rel, Rows: rs.Rows, Blobs: rs.Sketches}}, true)
			}
			if err != nil {
				return fmt.Errorf("hfta: pane %d %v", ps.Epoch, err)
			}
		}
		fresh[ps.Epoch] = p
	}
	c.panes = fresh
	c.next = next
	return nil
}

// checkRel validates one relation's snapshot against the workload: key
// arities, slot counts, and blobs that decode whole.
func (c *Composer) checkRel(rs PaneRelSnapshot) error {
	arity := rs.Rel.Size()
	for _, r := range rs.Rows {
		if len(r.Key) != arity {
			return fmt.Errorf("row key arity %d, want %d", len(r.Key), arity)
		}
		if len(r.Aggs) != len(c.aggs) {
			return fmt.Errorf("row has %d agg slots, want %d", len(r.Aggs), len(c.aggs))
		}
	}
	for _, kb := range rs.Sketches {
		if len(kb.Key) != arity {
			return fmt.Errorf("sketch key arity %d, want %d", len(kb.Key), arity)
		}
		if _, rest, err := sketch.DecodePartial(c.saggs, c.prec, c.comp, kb.Blob); err != nil {
			return fmt.Errorf("sketch blob: %v", err)
		} else if len(rest) != 0 {
			return fmt.Errorf("sketch blob has %d trailing bytes", len(rest))
		}
	}
	return nil
}

// Reset drops all retained panes and rewinds the window cursor.
func (c *Composer) Reset() {
	clear(c.panes)
	c.next = 0
}
